package store

// Durability-layer coverage: journal append/read round trips, the
// torn-tail-versus-corruption distinction a SIGKILL forces ReadJournal
// to make, quarantine bookkeeping, image recipe persistence (including
// hostile names), and the recipe → rebuilt-run digest contract.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/scenario"
)

func smallReq() cliconfig.SpecRequest {
	return cliconfig.SpecRequest{
		Scenario: "megafleet-1000",
		Racks:    4, HostsPerRack: 14,
		Duration: cliconfig.Duration(40 * time.Second),
		Sample:   cliconfig.Duration(5 * time.Second),
	}
}

func openStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJournalRoundTrip(t *testing.T) {
	st := openStore(t)
	jr, err := st.CreateJournal("s-0001")
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Op: "create", At: 0, Recipe: &Recipe{Spec: smallReq()}, KernelDigest: "d0", TraceLen: 3, TraceDigest: "t0"},
		{Op: "advance", At: int64(20 * time.Second), KernelDigest: "d1", TraceLen: 9, TraceDigest: "t1"},
		{Op: "inject", At: int64(20 * time.Second), KernelDigest: "d2", TraceLen: 10, TraceDigest: "t2",
			Fault: &cliconfig.FaultRequest{Kind: "rack-fail", Rack: 2, At: cliconfig.Duration(30 * time.Second)}},
	}
	for _, rec := range recs {
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if jr.Records() != len(recs) {
		t.Fatalf("handle counted %d appends, want %d", jr.Records(), len(recs))
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadJournal("s-0001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
	ids, err := st.JournalIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "s-0001" {
		t.Fatalf("JournalIDs = %v", ids)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	st := openStore(t)
	jr, err := st.CreateJournal("s-0002")
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(Record{Op: "create", At: 0}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(Record{Op: "advance", At: int64(10 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	// The one write a SIGKILL can interrupt: a final record cut mid-line.
	path := filepath.Join(st.Dir(), "journals", "s-0002.journal")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"advance","at_ns":2000`)
	f.Close()
	got, err := st.ReadJournal("s-0002")
	if err != nil {
		t.Fatalf("torn tail must read cleanly, got %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records past the torn tail, want 2", len(got))
	}
}

func TestJournalMidCorruptionRefused(t *testing.T) {
	st := openStore(t)
	path := filepath.Join(st.Dir(), "journals", "s-0003.journal")
	body := `{"op":"create","at_ns":0}` + "\n" +
		`{"op":"adv` + "\n" + // complete line, broken JSON: corruption, not a torn tail
		`{"op":"advance","at_ns":1000}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadJournal("s-0003"); err == nil {
		t.Fatal("mid-journal corruption read without error")
	}
}

func TestQuarantineJournal(t *testing.T) {
	st := openStore(t)
	jr, err := st.CreateJournal("s-0004")
	if err != nil {
		t.Fatal(err)
	}
	jr.Append(Record{Op: "create", At: 0})
	jr.Close()
	if err := st.QuarantineJournal("s-0004", "kernel digest mismatch"); err != nil {
		t.Fatal(err)
	}
	ids, err := st.JournalIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("quarantined journal still listed: %v", ids)
	}
	q, err := st.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if q["s-0004"] != "kernel digest mismatch" {
		t.Fatalf("Quarantined() = %v", q)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "quarantine", "s-0004.journal")); err != nil {
		t.Fatalf("quarantined journal body missing: %v", err)
	}
}

func TestImageRoundTripAndHostileNames(t *testing.T) {
	st := openStore(t)
	rec := ImageRecord{
		Name:        "base",
		Recipe:      Recipe{Spec: smallReq(), At: int64(10 * time.Second)},
		Fingerprint: "r4.h14.abc", KernelDigest: "abc", TraceLen: 5, TraceDigest: "def",
	}
	if err := st.SaveImage(rec); err != nil {
		t.Fatal(err)
	}
	// A hostile name must land inside images/, never resolve outside it.
	evil := rec
	evil.Name = "../../escape"
	if err := st.SaveImage(evil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), "escape")); !os.IsNotExist(err) {
		t.Fatal("hostile image name escaped the images directory")
	}
	got, err := st.Images()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d images, want 2", len(got))
	}
	if !reflect.DeepEqual(got[1], rec) {
		t.Fatalf("image round trip mismatch:\n got %+v\nwant %+v", got[1], rec)
	}
	if err := st.RemoveImage("base"); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Images(); len(got) != 1 {
		t.Fatalf("remove left %d images, want 1", len(got))
	}
}

func TestRecipeRebuildReproducesRun(t *testing.T) {
	req := smallReq()
	fault := cliconfig.FaultRequest{Kind: "rack-fail", Rack: 2,
		At: cliconfig.Duration(20 * time.Second), Outage: cliconfig.Duration(5 * time.Second)}

	// The original history: pause at 15s, inject, run on to 25s.
	spec, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := scenario.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Cloud.Close()
	if err := orig.RunTo(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	f, err := fault.Fault()
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Inject(f); err != nil {
		t.Fatal(err)
	}
	if err := orig.RunTo(25 * time.Second); err != nil {
		t.Fatal(err)
	}

	recipe := Recipe{
		Spec: req, At: int64(25 * time.Second),
		Injections: []FaultRecord{{At: int64(15 * time.Second), Fault: fault}},
	}
	rebuilt, err := recipe.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Cloud.Close()
	if rebuilt.Offset() != 25*time.Second {
		t.Fatalf("rebuilt run paused at %v, want 25s", rebuilt.Offset())
	}
	if got, want := scenario.DigestTrace(rebuilt.Trace()), scenario.DigestTrace(orig.Trace()); got != want {
		t.Fatalf("rebuilt trace digest %s, original %s", got, want)
	}
	if got, want := rebuilt.Cloud.KernelState().Digest, orig.Cloud.KernelState().Digest; got != want {
		t.Fatalf("rebuilt kernel digest %s, original %s", got, want)
	}

	// The same recipe as written by a store from before the sharding
	// knobs and the kernel twins left the wire:
	// testdata/legacy-recipe.json still carries their eight fields
	// (sharded_advance, shard_workers, shards, solve_workers,
	// serial_solve, eager_advance, classic_heap,
	// disable_route_synthesis). Decoding ignores them, so data
	// directories and checkpoint files from that era still recover and
	// verify against the digests they journaled.
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-recipe.json"))
	if err != nil {
		t.Fatal(err)
	}
	var old Recipe
	if err := json.Unmarshal(legacy, &old); err != nil {
		t.Fatalf("legacy recipe refused: %v", err)
	}
	if !reflect.DeepEqual(old, recipe) {
		t.Fatalf("legacy recipe decoded as %+v, want %+v", old, recipe)
	}
	replayed, err := old.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Cloud.Close()
	if got, want := scenario.DigestTrace(replayed.Trace()), scenario.DigestTrace(orig.Trace()); got != want {
		t.Fatalf("legacy recipe trace digest %s, original %s", got, want)
	}
	if got, want := replayed.Cloud.KernelState().Digest, orig.Cloud.KernelState().Digest; got != want {
		t.Fatalf("legacy recipe kernel digest %s, original %s", got, want)
	}
}
