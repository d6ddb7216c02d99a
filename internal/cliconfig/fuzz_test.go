package cliconfig

// Native fuzz targets for the wire decoding every POST body, journal
// record and checkpoint file crosses. Seed corpora live under
// testdata/fuzz/<target>/; `make fuzz` runs each target for a short
// -fuzztime, and plain `go test` replays the seeds.

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzFaultRequest: decoding arbitrary JSON into a fault never panics,
// and every fault that decodes survives the journal round trip —
// EncodeFault accepts it and decoding the encoding yields it again.
func FuzzFaultRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req FaultRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		fault, err := req.Fault()
		if err != nil {
			return
		}
		wire, err := EncodeFault(fault)
		if err != nil {
			t.Fatalf("EncodeFault(%#v) refused a decoded fault: %v", fault, err)
		}
		back, err := wire.Fault()
		if err != nil {
			t.Fatalf("re-decoding %+v: %v", wire, err)
		}
		if !reflect.DeepEqual(back, fault) {
			t.Fatalf("round trip drift:\n got %#v\nwant %#v", back, fault)
		}
	})
}

// FuzzSpecRequest: resolving arbitrary JSON never panics, and every
// spec that resolves describes a runnable shape — a positive duration
// and, after the defaults core.New applies to zero fields, a positive
// rack count and rack size.
func FuzzSpecRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SpecRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		spec, err := req.Resolve()
		if err != nil {
			return
		}
		cfg := spec.Cloud
		cfg.FillDefaults()
		if spec.Duration <= 0 || cfg.Racks <= 0 || cfg.HostsPerRack <= 0 {
			t.Fatalf("%s resolved to duration %v, %d racks × %d hosts", body, spec.Duration, cfg.Racks, cfg.HostsPerRack)
		}
	})
}
