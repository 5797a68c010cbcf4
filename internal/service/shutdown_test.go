package service

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"permadead/internal/core"
	"permadead/internal/edge"
)

// TestGracefulShutdown drives the full drain sequence over a real
// listener: an in-flight /v1/classify request is held mid-handler,
// drain begins, new requests and health checks get 503, the held
// request completes normally, Shutdown returns, and the listener is
// closed to fresh connections.
func TestGracefulShutdown(t *testing.T) {
	_, r := fixture(t)
	s := newServer(t, nil)

	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHookClassify = func() {
		close(entered)
		<-release
	}

	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	client := &http.Client{Timeout: 10 * time.Second}

	// Hold one classification in flight across the drain.
	inflight := make(chan error, 1)
	var inflightBody []byte
	var inflightCode int
	go func() {
		resp, err := client.Get(base + "/v1/classify?url=" + queryEscape(r.Records[0].URL))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		inflightCode = resp.StatusCode
		inflightBody, err = io.ReadAll(resp.Body)
		inflight <- err
	}()
	<-entered

	s.BeginDrain()

	// New requests are refused with the draining envelope...
	resp, err := client.Get(base + "/v1/classify?url=" + queryEscape(r.Records[1].URL))
	if err != nil {
		t.Fatal(err)
	}
	var env edge.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "draining" {
		t.Errorf("request during drain = %d %q, want 503 draining", resp.StatusCode, env.Error.Code)
	}

	// ...and the health check flips so load balancers stop routing here.
	resp, err = client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("healthz during drain = %d %q, want 503 draining", resp.StatusCode, health.Status)
	}

	// Shutdown waits for the held request; release it and both finish.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin waiting
	close(release)

	if err := <-inflight; err != nil {
		t.Fatalf("in-flight classify failed: %v", err)
	}
	if inflightCode != http.StatusOK {
		t.Errorf("in-flight classify = %d, want 200 (body: %s)", inflightCode, inflightBody)
	}
	var c core.Classification
	if err := json.Unmarshal(inflightBody, &c); err != nil {
		t.Fatalf("in-flight classify body is not a Classification: %v", err)
	}
	if c.Verdict != r.Verdicts[0] {
		t.Errorf("in-flight verdict %q, offline study %q", c.Verdict, r.Verdicts[0])
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The listener is closed: fresh connections are refused.
	if conn, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepting connections after Shutdown")
	}
}
