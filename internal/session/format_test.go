package session

// The on-disk and on-the-wire formats are pinned by fixtures written
// before the formats' Go types shared scenario.Stamp (testdata/format/):
// journal records of every op, an image file, a checkpoint response
// body and a piscale checkpoint file. Each must decode into today's
// types and re-encode, through the code path that writes it, to the
// identical bytes.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/store"
)

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "format", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func requireSameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s re-encodes differently:\n got %s\nwant %s", what, got, want)
	}
}

func TestWireFormatsPinned(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("journal_records", func(t *testing.T) {
		want := readFixture(t, "records.journal")
		if err := os.WriteFile(filepath.Join(st.Dir(), "journals", "pin.journal"), want, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := st.ReadJournal("pin")
		if err != nil {
			t.Fatal(err)
		}
		ops := map[string]bool{}
		for _, rec := range recs {
			ops[rec.Op] = true
			if rec.Op != "close" && (rec.At <= 0 || rec.KernelDigest == "" || rec.TraceLen == 0) {
				t.Fatalf("%s record decoded without its stamp: %+v", rec.Op, rec.Stamp)
			}
		}
		for _, op := range []string{"create", "advance", "inject", "checkpoint", "fork", "close"} {
			if !ops[op] {
				t.Fatalf("fixture lacks a %s record", op)
			}
		}
		jr, err := st.CreateJournal("pin")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := jr.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		jr.Close()
		got, err := os.ReadFile(filepath.Join(st.Dir(), "journals", "pin.journal"))
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, "journal", got, want)
	})

	t.Run("image_record", func(t *testing.T) {
		want := readFixture(t, "image_record.json")
		path := filepath.Join(st.Dir(), "images", "img-mid.json")
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		imgs, err := st.Images()
		if err != nil || len(imgs) != 1 {
			t.Fatalf("images %v, %v", imgs, err)
		}
		rec := imgs[0]
		if rec.Stamp.At != 20*time.Second || rec.Recipe.At != int64(rec.Stamp.At) ||
			rec.Stamp.KernelDigest == "" || rec.Stamp.TraceLen != 2 || len(rec.Injections) != 1 {
			t.Fatalf("image decoded as %+v", rec)
		}
		if err := st.SaveImage(rec); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, "image file", got, want)
	})

	t.Run("checkpoint_info", func(t *testing.T) {
		want := readFixture(t, "checkpoint_info.json")
		var info CheckpointInfo
		if err := json.Unmarshal(want, &info); err != nil {
			t.Fatal(err)
		}
		if info.At != 20*time.Second || info.Fingerprint == "" || info.KernelDigest == "" || info.Image != "mid" {
			t.Fatalf("checkpoint info decoded as %+v", info)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, info)
		requireSameBytes(t, "checkpoint response", rec.Body.Bytes(), want)
	})

	t.Run("checkpoint_file", func(t *testing.T) {
		want := readFixture(t, "checkpoint_file.json")
		file, err := cliconfig.DecodeCheckpointFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if file.Scenario != "rack-blackout" || file.At != 45*time.Second || file.KernelSeq == 0 || file.KernelDigest == "" {
			t.Fatalf("checkpoint file decoded as %+v", file)
		}
		got, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, "checkpoint file", append(got, '\n'), want)
	})
}
