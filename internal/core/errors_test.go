package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/arraymgr"
	"repro/internal/msg"
	msgnet "repro/internal/msg/net"
)

// TestSentinelUnwrap pins the static unwrap chain: each transport-
// failure sentinel chains to its router-layer counterpart, and the
// non-transport statuses chain to nothing.
func TestSentinelUnwrap(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{ErrTimeout, msg.ErrTimeout},
		{ErrDown, msg.ErrProcessorDown},
		{ErrClosed, msg.ErrClosed},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("errors.Is(%v, %v) = false", c.err, c.want)
		}
	}
	// Cross-wiring must not match.
	if errors.Is(ErrTimeout, msg.ErrProcessorDown) || errors.Is(ErrDown, msg.ErrClosed) ||
		errors.Is(ErrClosed, msg.ErrTimeout) {
		t.Error("a sentinel unwraps to the wrong router error")
	}
	// Statuses with no router counterpart unwrap to nothing.
	for _, e := range []error{ErrInvalid, ErrNotFound, ErrSystem} {
		for _, target := range []error{msg.ErrTimeout, msg.ErrProcessorDown, msg.ErrClosed} {
			if errors.Is(e, target) {
				t.Errorf("errors.Is(%v, %v) = true", e, target)
			}
		}
	}
}

// TestErrDownRoundTrip drives a real operation into a killed peer and
// checks the error answers both vocabularies: the core sentinel and the
// underlying msg sentinel.
func TestErrDownRoundTrip(t *testing.T) {
	m := New(4)
	defer m.Close()
	m.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 20 * time.Millisecond, Retries: 2})

	a, err := m.NewArray(ArraySpec{Dims: []int{16}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	if err := m.Kill(3); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	// Element 15 lives on the killed processor 3.
	_, err = a.Read(15)
	if err == nil {
		t.Fatal("read from killed owner succeeded")
	}
	if !errors.Is(err, ErrDown) {
		t.Fatalf("errors.Is(err, core.ErrDown) = false for %v", err)
	}
	if !errors.Is(err, msg.ErrProcessorDown) {
		t.Fatalf("errors.Is(err, msg.ErrProcessorDown) = false for %v", err)
	}
	if errors.Is(err, msg.ErrTimeout) || errors.Is(err, msg.ErrClosed) {
		t.Fatalf("down error matches an unrelated sentinel: %v", err)
	}
}

// TestErrTimeoutRoundTrip drops every request to one owner so the retry
// budget exhausts, and checks the resulting error matches msg.ErrTimeout
// end to end.
func TestErrTimeoutRoundTrip(t *testing.T) {
	m := New(4)
	defer m.Close()
	// Requests 0 -> 3 always vanish; everything else is reliable.
	m.VM.Router().SetFaultPlan(&msg.FaultPlan{
		Seed:  1,
		Pairs: map[[2]int]msg.FaultRule{{0, 3}: {Drop: 1}},
	})
	m.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 10 * time.Millisecond, Retries: 2})

	a, err := m.NewArray(ArraySpec{Dims: []int{16}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	_, err = a.Read(15)
	if err == nil {
		t.Fatal("read across an always-drop link succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("errors.Is(err, core.ErrTimeout) = false for %v", err)
	}
	if !errors.Is(err, msg.ErrTimeout) {
		t.Fatalf("errors.Is(err, msg.ErrTimeout) = false for %v", err)
	}
	if errors.Is(err, msg.ErrProcessorDown) {
		t.Fatalf("timeout error matches ErrProcessorDown: %v", err)
	}
}

// TestErrClosedRoundTrip shuts the machine down and checks a subsequent
// operation fails with the closed sentinels rather than a generic error.
func TestErrClosedRoundTrip(t *testing.T) {
	m := New(4)
	a, err := m.NewArray(ArraySpec{Dims: []int{16}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	m.Close()
	_, err = a.Read(15)
	if err == nil {
		t.Fatal("read on a closed machine succeeded")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("errors.Is(err, core.ErrClosed) = false for %v", err)
	}
	if !errors.Is(err, msg.ErrClosed) {
		t.Fatalf("errors.Is(err, msg.ErrClosed) = false for %v", err)
	}
}

// TestCallOnNonHostedProcRejected pins the entry-point check of a
// partitioned machine. An array-manager call runs its coordinator on the
// calling goroutine against onProc's server state, and owners address
// their replies to onProc, so onProc must live in the calling OS
// process. A call naming a processor hosted by another part is refused
// at once with StatusInvalid, not left waiting for replies delivered to
// the other part. The parts are two in-process routers joined by the
// loopback TCP transport.
func TestCallOnNonHostedProcRejected(t *testing.T) {
	const p, nparts = 4, 2
	t0, err := msgnet.Listen("127.0.0.1:0", p, nparts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	m0 := New(p, WithRouterSetup(func(r *msg.Router) {
		r.SetTransport(t0, msgnet.HostedMap(p, nparts, 0))
		t0.Attach(r)
	}))
	t1, err := msgnet.Dial(t0.Addr(), p, nparts, 1)
	if err != nil {
		t0.Close()
		m0.Close()
		t.Fatalf("Dial: %v", err)
	}
	m1 := New(p, WithRouterSetup(func(r *msg.Router) {
		r.SetTransport(t1, msgnet.HostedMap(p, nparts, 1))
		t1.Attach(r)
	}))
	t.Cleanup(func() {
		t0.Shutdown()
		m0.Close()
		m1.Close()
		t1.Wait()
	})
	if err := t0.WaitPeers(10 * time.Second); err != nil {
		t.Fatalf("WaitPeers: %v", err)
	}
	// A policy bounds the wait for the case this test guards against.
	m0.SetCallPolicy(&arraymgr.CallPolicy{Timeout: 300 * time.Millisecond, Retries: 1})

	a, err := m0.NewArray(ArraySpec{Dims: []int{16}})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	lo, hi := []int{0}, []int{16}
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(3 * i)
	}
	if err := a.WriteBlock(lo, hi, vals); err != nil {
		t.Fatalf("WriteBlock from part 0: %v", err)
	}

	// Processor 2 is hosted by part 1.
	am := m0.AM
	start := time.Now()
	if _, st := am.FindInfo(2, a.ID(), "type"); st != arraymgr.StatusInvalid {
		t.Errorf("FindInfo on a non-hosted processor: %v, want %v", st, arraymgr.StatusInvalid)
	}
	if _, st := am.ReadBlock(2, a.ID(), lo, hi); st != arraymgr.StatusInvalid {
		t.Errorf("ReadBlock on a non-hosted processor: %v, want %v", st, arraymgr.StatusInvalid)
	}
	if st := am.WriteBlock(2, a.ID(), lo, hi, vals); st != arraymgr.StatusInvalid {
		t.Errorf("WriteBlock on a non-hosted processor: %v, want %v", st, arraymgr.StatusInvalid)
	}
	if _, st := am.CreateArray(3, arraymgr.CreateSpec{Dims: []int{4}, Procs: []int{0, 1}}); st != arraymgr.StatusInvalid {
		t.Errorf("CreateArray on a non-hosted processor: %v, want %v", st, arraymgr.StatusInvalid)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("refusals took %v; want them at once", d)
	}

	// A hosted processor still reaches the remote owners.
	got, err := a.ReadBlock(lo, hi)
	if err != nil {
		t.Fatalf("ReadBlock from part 0: %v", err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], vals[i])
		}
	}
}
