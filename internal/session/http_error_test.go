package session

// Satellite coverage for the API's documented error statuses: client
// mistakes answer 400, oversized bodies 413, contention and terminal
// session states 409 (busy, closed mid-advance, failed, quarantined),
// graceful shutdown 503 — and none of them a bare 500.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func testServer(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	mgr := NewManager()
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() { srv.Close(); mgr.Close() })
	return mgr, srv
}

// postStatus posts body (raw bytes) and returns status code + response
// body text.
func postStatus(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(text)
}

func TestHTTPBadRequests(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	inject := srv.URL + "/v1/sessions/" + s.ID + "/inject"

	// Malformed JSON body → 400.
	if code, _ := postStatus(t, inject, []byte(`{"kind":`)); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d, want 400", code)
	}
	// Unknown fault kind → 400 (not 500).
	if code, body := postStatus(t, inject, []byte(`{"kind":"frobnicate"}`)); code != http.StatusBadRequest {
		t.Fatalf("unknown fault kind: HTTP %d (%s), want 400", code, body)
	}
	// Valid wire form, invalid timeline (action before the current
	// offset) → 400: the kernel's validation is a client mistake too.
	past := fmt.Sprintf(`{"kind":"rack-fail","rack":1,"at_ns":%d,"outage_ns":%d}`,
		int64(time.Second), int64(time.Second))
	if code, body := postStatus(t, inject, []byte(past)); code != http.StatusBadRequest {
		t.Fatalf("inject before offset: HTTP %d (%s), want 400", code, body)
	}
	// A node-churn cadence that would expand into one power cycle per
	// nanosecond → 400, answered at once.
	churn := fmt.Sprintf(`{"kind":"node-churn","start_ns":%d,"every_ns":1,"outage_ns":%d}`,
		int64(20*time.Second), int64(time.Second))
	if code, body := postStatus(t, inject, []byte(churn)); code != http.StatusBadRequest {
		t.Fatalf("1ns node churn: HTTP %d (%s), want 400", code, body)
	}
	// Advance with neither target nor step → 400.
	if code, _ := postStatus(t, srv.URL+"/v1/sessions/"+s.ID+"/advance", []byte(`{}`)); code != http.StatusBadRequest {
		t.Fatalf("targetless advance: HTTP %d, want 400", code)
	}
}

func TestHTTPOversizedBody(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	huge := append([]byte(`{"to_ns":1,"pad":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1024)...)
	huge = append(huge, []byte(`"}`)...)
	code, _ := postStatus(t, srv.URL+"/v1/sessions/"+s.ID+"/advance", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", code)
	}
}

func TestHTTPCloseMidAdvanceConflict(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the kernel inside the 20s slice so the DELETE provably races
	// an in-flight advance.
	reached := make(chan struct{})
	release := make(chan struct{})
	if err := s.Inject(scenario.HookFault{At: 20 * time.Second, Name: "holdpoint",
		Run: func(*scenario.Run) error { close(reached); <-release; return nil }}); err != nil {
		t.Fatal(err)
	}
	advDone := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		code, body := postStatus(t, srv.URL+"/v1/sessions/"+s.ID+"/advance",
			[]byte(fmt.Sprintf(`{"to_ns":%d}`, int64(40*time.Second))))
		advDone <- struct {
			code int
			body string
		}{code, body}
	}()
	<-reached
	delDone := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sessions/"+s.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			delDone <- 0
			return
		}
		resp.Body.Close()
		delDone <- resp.StatusCode
	}()
	// Release the kernel only once the close command is queued, so the
	// advance's next slice boundary must observe it.
	for len(s.cmds) == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	adv := <-advDone
	if adv.code != http.StatusConflict || !strings.Contains(adv.body, "closed") {
		t.Fatalf("close-mid-advance: HTTP %d (%s), want 409 mentioning the closure", adv.code, adv.body)
	}
	if code := <-delDone; code != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d, want 200", code)
	}
	// The id is gone now: 404, not 409 (it was never quarantined).
	if code, _ := postStatus(t, srv.URL+"/v1/sessions/"+s.ID+"/advance", []byte(`{"to_ns":1}`)); code != http.StatusNotFound {
		t.Fatalf("advance on deleted session: HTTP %d, want 404", code)
	}
}

func TestHTTPFailedSessionConflict(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(scenario.HookFault{At: 20 * time.Second, Name: "bomb",
		Run: func(*scenario.Run) error { panic("kaboom") }}); err != nil {
		t.Fatal(err)
	}
	code, body := postStatus(t, srv.URL+"/v1/sessions/"+s.ID+"/advance",
		[]byte(fmt.Sprintf(`{"to_ns":%d}`, int64(40*time.Second))))
	if code != http.StatusConflict || !strings.Contains(body, "kaboom") {
		t.Fatalf("advance over panicking kernel: HTTP %d (%s), want 409 with the reason", code, body)
	}
	// Retrying answers 409 with the recorded failure, not a hang or 500.
	code, body = postStatus(t, srv.URL+"/v1/sessions/"+s.ID+"/advance", []byte(`{"to_ns":1}`))
	if code != http.StatusConflict || !strings.Contains(body, "kaboom") {
		t.Fatalf("advance on failed session: HTTP %d (%s), want 409 with the reason", code, body)
	}
	// The failed session stays visible: listed with its state, and
	// healthz reports it.
	resp, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Sessions []Status `json:"sessions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range listing.Sessions {
		if st.ID == s.ID {
			found = true
			if st.State != StateFailed || !strings.Contains(st.Failure, "kaboom") {
				t.Fatalf("failed session listed as %+v", st)
			}
		}
	}
	if !found {
		t.Fatalf("failed session %s missing from the listing", s.ID)
	}
}

func TestHTTPQuarantinedSessionConflict(t *testing.T) {
	mgr, srv := testServer(t)
	mgr.mu.Lock()
	mgr.quarantined["s-6666"] = "kernel digest mismatch: replayed x, journal stamped y"
	mgr.mu.Unlock()
	resp, err := http.Get(srv.URL + "/v1/sessions/s-6666")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), "digest mismatch") {
		t.Fatalf("quarantined id: HTTP %d (%s), want 409 with the recorded reason", resp.StatusCode, body)
	}
	if code, _ := postStatus(t, srv.URL+"/v1/sessions/s-6666/advance", []byte(`{"to_ns":1}`)); code != http.StatusConflict {
		t.Fatalf("advance on quarantined id: HTTP %d, want 409", code)
	}
	// Unknown ids are still a plain 404.
	resp, err = http.Get(srv.URL + "/v1/sessions/s-7777")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestHTTPDrainUnavailable(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	mgr.Drain()
	code, body := postStatus(t, srv.URL+"/v1/sessions", []byte(`{"base_image":"base"}`))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: HTTP %d (%s), want 503", code, body)
	}
	code, _ = postStatus(t, srv.URL+"/v1/images", []byte(`{"name":"late","at_ns":1,"spec":{"scenario":"megafleet-1000"}}`))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("image while draining: HTTP %d, want 503", code)
	}
}

func TestHTTPHealthzDetail(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK            bool `json:"ok"`
		SessionDetail []struct {
			ID           string `json:"id"`
			State        string `json:"state"`
			OffsetNS     int64  `json:"offset_ns"`
			DurableNS    int64  `json:"durable_offset_ns"`
			JournalLagNS int64  `json:"journal_lag_ns"`
			Subscribers  int    `json:"subscribers"`
		} `json:"session_detail"`
		Quarantined map[string]string `json:"sessions_quarantined"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !hz.OK || len(hz.SessionDetail) != 1 {
		t.Fatalf("healthz = %+v", hz)
	}
	det := hz.SessionDetail[0]
	if det.ID != s.ID || det.State != StateRunning || det.OffsetNS != int64(20*time.Second) {
		t.Fatalf("session detail = %+v", det)
	}
	// Memory-only manager: durable offset trails at zero, lag is capped
	// at the real gap, never negative.
	if det.JournalLagNS != det.OffsetNS-det.DurableNS {
		t.Fatalf("journal lag %d, want %d", det.JournalLagNS, det.OffsetNS-det.DurableNS)
	}
}
