package perf

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop keeps its schedule while the server falls behind: every
// request is timed from when it was due, so the wait for a free connection
// counts toward its latency and grows request by request.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n       = 8
		rate    = 100.0 // one due every 10ms
		service = 30 * time.Millisecond
	)
	var budgets [n]time.Duration
	send := func(j Job, budget time.Duration) (Response, error) {
		budgets[j.Seq] = budget
		time.Sleep(service)
		return Response{Tier: "full-dp"}, nil
	}
	start := time.Now()
	ss := OpenLoop(start, rate, n, 1, 250*time.Millisecond, func(seq int) int { return seq }, send, nil)
	if len(ss) != n {
		t.Fatalf("got %d samples, want %d", len(ss), n)
	}
	for i, s := range ss {
		due := start.Add(time.Duration(i) * 10 * time.Millisecond)
		if s.Seq != i || !s.Due.Equal(due) {
			t.Fatalf("sample %d: seq %d due %v, want due %v", i, s.Seq, s.Due.Sub(start), due.Sub(start))
		}
		// One connection serving 30ms requests every 10ms: request i
		// cannot start before i full services have finished.
		if min := time.Duration(i) * (service - 10*time.Millisecond); s.Backlog() < min {
			t.Errorf("sample %d: backlog %v, want at least %v", i, s.Backlog(), min)
		}
		if s.Latency() < s.Backlog()+service {
			t.Errorf("sample %d: latency %v does not cover backlog %v plus service %v", i, s.Latency(), s.Backlog(), service)
		}
		if want := 250*time.Millisecond - s.Backlog(); budgets[i] > want || budgets[i] < want-5*time.Millisecond {
			t.Errorf("sample %d: budget %v, want the deadline less the backlog, %v", i, budgets[i], want)
		}
	}
	if last := ss[n-1]; last.Backlog() <= ss[1].Backlog() {
		t.Errorf("backlog did not grow: %v at the last request, %v at the second", last.Backlog(), ss[1].Backlog())
	}
}

// A late request still gets a budget, floored at a millisecond, so the
// server answers it from a cheap tier instead of refusing it.
func TestOpenLoopFloorsBudget(t *testing.T) {
	var min atomic.Int64
	min.Store(int64(time.Hour))
	send := func(j Job, budget time.Duration) (Response, error) {
		if int64(budget) < min.Load() {
			min.Store(int64(budget))
		}
		time.Sleep(5 * time.Millisecond)
		return Response{Tier: "no-sit"}, nil
	}
	OpenLoop(time.Now(), 1000, 6, 1, 2*time.Millisecond, func(int) int { return 0 }, send, nil)
	if got := time.Duration(min.Load()); got != time.Millisecond {
		t.Errorf("smallest budget = %v, want the 1ms floor", got)
	}
}

func TestClosedLoopRunsDryAndKeepsOrder(t *testing.T) {
	var inFlight, peak atomic.Int32
	send := func(j Job, budget time.Duration) (Response, error) {
		if budget != 0 {
			t.Errorf("closed loop sent budget %v, want the server default", budget)
		}
		if v := inFlight.Add(1); v > peak.Load() {
			peak.Store(v)
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return Response{Tier: "full-dp"}, nil
	}
	var done atomic.Int32
	ss := ClosedLoop(2, time.Now().Add(time.Hour), sequential(10, 30), send, nil, func(Sample) { done.Add(1) })
	if len(ss) != 20 || done.Load() != 20 {
		t.Fatalf("got %d samples and %d callbacks, want 20", len(ss), done.Load())
	}
	for i, s := range ss {
		if s.Seq != i || s.Query != 10+i {
			t.Errorf("sample %d: seq %d query %d, want seq %d query %d", i, s.Seq, s.Query, i, 10+i)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight, want at most 2 clients", p)
	}
}

func TestValidate(t *testing.T) {
	for _, r := range []Response{
		{Cardinality: 1},
		{Cardinality: -1, Tier: "full-dp"},
		{Cardinality: math.Inf(1), Tier: "gvm"},
		{Cardinality: math.NaN(), Tier: "budgeted-dp"},
	} {
		if Validate(r) == nil {
			t.Errorf("Validate(%+v) passed, want a failure", r)
		}
	}
	if err := Validate(Response{Cardinality: 0, Tier: "no-sit"}); err != nil {
		t.Errorf("Validate of a zero cardinality: %v", err)
	}
}
