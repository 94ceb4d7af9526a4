package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"condsel/internal/serve"
)

// maxConns is the client's connection cap: one per admission slot plus one
// queued behind it, so the load generator never outnumbers the cores.
const maxConns = 2

// Job is one request the load generator sends.
type Job struct {
	Seq   int       // position in the send order
	Query int       // corpus index
	Due   time.Time // open loop: when it was scheduled; closed loop: when sent
	Trace uint64    // root span ID of a traced request, else 0
}

// Response is the part of serve's EstimateResult the benchmark checks.
type Response struct {
	Cardinality float64 `json:"cardinality"`
	Tier        string  `json:"tier"`
	Generation  uint64  `json:"generation"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	Shed        bool    `json:"shed"`
	Error       string  `json:"error"`
}

// Sample is one request's outcome as the client saw it.
type Sample struct {
	Job
	Late       time.Duration // open loop: dispatcher hand-off time minus Due
	Sent, Done time.Time
	Resp       Response
	Err        error // transport, status, decode or validity failure
}

// Latency is the time from due to done: for an open loop it includes the
// wait for a free connection, for a closed loop it is the round trip.
func (s Sample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Backlog is the wait from due until a connection was free.
func (s Sample) Backlog() time.Duration { return s.Sent.Sub(s.Due) }

// SendFunc sends one job; budget > 0 overrides the server's default
// deadline.
type SendFunc func(j Job, budget time.Duration) (Response, error)

// ClosedLoop runs clients that each send their next request only after the
// previous one completed, until next runs dry or the deadline passes. done,
// when non-nil, is called on the client's goroutine after each request, so
// a workload can couple writes to completed reads.
func ClosedLoop(clients int, until time.Time, next func() (int, bool), send SendFunc, ids func() uint64, done func(Sample)) []Sample {
	var mu sync.Mutex
	seq := 0
	take := func() (Job, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !time.Now().Before(until) {
			return Job{}, false
		}
		q, ok := next()
		if !ok {
			return Job{}, false
		}
		j := Job{Seq: seq, Query: q}
		seq++
		if ids != nil {
			j.Trace = ids()
		}
		return j, true
	}
	per := make([][]Sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				j, ok := take()
				if !ok {
					return
				}
				j.Due = time.Now()
				s := Sample{Job: j, Sent: j.Due}
				s.Resp, s.Err = send(j, 0)
				s.Done = time.Now()
				if done != nil {
					done(s)
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	return merge(per)
}

// OpenLoop sends n requests on a fixed schedule of rate per second from
// start, over at most conns connections, whatever the server's pace. Each
// request carries the caller's remaining budget: deadline minus the time
// since it was due, floored at a millisecond so a late request still gets an
// answer, from a cheap tier.
func OpenLoop(start time.Time, rate float64, n, conns int, deadline time.Duration, query func(seq int) int, send SendFunc, ids func() uint64) []Sample {
	type queued struct {
		j    Job
		late time.Duration
	}
	jobs := make(chan queued, n) // sized to every send, so the dispatcher never blocks
	go func() {
		defer close(jobs)
		for seq := 0; seq < n; seq++ {
			due := start.Add(time.Duration(float64(seq) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			j := Job{Seq: seq, Query: query(seq), Due: due}
			if ids != nil {
				j.Trace = ids()
			}
			jobs <- queued{j, time.Since(due)}
		}
	}()
	per := make([][]Sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := range jobs {
				s := Sample{Job: q.j, Late: q.late, Sent: time.Now()}
				budget := deadline - s.Sent.Sub(q.j.Due)
				if budget < time.Millisecond {
					budget = time.Millisecond
				}
				s.Resp, s.Err = send(q.j, budget)
				s.Done = time.Now()
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	return merge(per)
}

func merge(per [][]Sample) []Sample {
	var out []Sample
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Client sends corpus queries to a sitserve /estimate endpoint over at most
// maxConns keep-alive connections. It writes its HTTP/1.1 requests itself:
// net/http's transport cost the load generator about as much CPU per
// request as the server spends answering a cached query, and on a 2-core
// machine that CPU is taken from the server.
type Client struct {
	addr   string // host:port
	bodies [][]byte
	idle   chan *conn    // idle connections
	open   chan struct{} // one token per open connection
}

type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	req []byte // the request being written, reused
}

// NewClient returns a client for the server at base (http://host:port)
// whose jobs index texts.
func NewClient(base string, texts []string) *Client {
	bodies := make([][]byte, len(texts))
	for i, t := range texts {
		bodies[i] = []byte(t)
	}
	return &Client{
		addr:   strings.TrimPrefix(base, "http://"),
		bodies: bodies,
		idle:   make(chan *conn, maxConns),
		open:   make(chan struct{}, maxConns),
	}
}

// get returns an idle connection, or dials one while fewer than maxConns
// are open, or waits for one to become idle.
func (c *Client) get() (*conn, error) {
	select {
	case cn := <-c.idle:
		return cn, nil
	default:
	}
	select {
	case cn := <-c.idle:
		return cn, nil
	case c.open <- struct{}{}:
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			<-c.open
			return nil, err
		}
		return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
	}
}

func (c *Client) discard(cn *conn) {
	cn.nc.Close()
	<-c.open
}

// Send posts the job's query and validates the answer.
func (c *Client) Send(j Job, budget time.Duration) (Response, error) {
	cn, err := c.get()
	if err != nil {
		return Response{}, err
	}
	body := c.bodies[j.Query]
	b := append(cn.req[:0], "POST /estimate HTTP/1.1\r\nHost: sitperf\r\nContent-Type: text/plain\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if budget > 0 {
		b = append(b, "\r\n"+serve.DeadlineHeader+": "...)
		b = strconv.AppendFloat(b, float64(budget)/float64(time.Millisecond), 'f', 3, 64)
	}
	if j.Trace != 0 {
		b = append(b, "\r\n"+traceHeader+": "...)
		b = strconv.AppendUint(b, j.Trace, 10)
	}
	b = append(append(b, "\r\n\r\n"...), body...)
	cn.req = b
	if err := cn.nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		c.discard(cn)
		return Response{}, err
	}
	if _, err := cn.nc.Write(b); err != nil {
		c.discard(cn)
		return Response{}, fmt.Errorf("writing request: %w", err)
	}
	resp, err := http.ReadResponse(cn.br, nil)
	if err != nil {
		c.discard(cn)
		return Response{}, fmt.Errorf("reading response: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.discard(cn)
	} else {
		c.idle <- cn
	}
	if err != nil {
		return Response{}, fmt.Errorf("reading response: %w", err)
	}
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		return Response{}, fmt.Errorf("decoding response (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, r.Error)
	}
	return r, Validate(r)
}

// Close closes the client's idle connections. Call it once no Send runs.
func (c *Client) Close() {
	for {
		select {
		case cn := <-c.idle:
			c.discard(cn)
		default:
			return
		}
	}
}

// Validate reports an answer the service contract forbids: no tier, or a
// cardinality that is not a finite non-negative number.
func Validate(r Response) error {
	if r.Tier == "" {
		return fmt.Errorf("answer has no tier")
	}
	if math.IsNaN(r.Cardinality) || math.IsInf(r.Cardinality, 0) || r.Cardinality < 0 {
		return fmt.Errorf("cardinality %v is not finite and non-negative", r.Cardinality)
	}
	return nil
}
