package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// lane is one load-generator connection. Each lane owns a transport capped
// at one connection per host, so the generator opens exactly as many
// connections as it has lanes.
type lane struct {
	id     int
	client *http.Client
	buf    bytes.Buffer
	seq    int
}

func newLanes(n int) []*lane {
	ls := make([]*lane, n)
	for i := range ls {
		ls[i] = &lane{id: i, client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return ls
}

func closeLanes(ls []*lane) {
	for _, l := range ls {
		l.client.CloseIdleConnections()
	}
}

// sample is one request as the generator saw it. Times are offsets from the
// start of the loop that sent it.
type sample struct {
	idx      int           // index into the plan's request list
	sent     time.Duration // when the request went out
	start    time.Duration // when it is timed from (see timedFrom)
	end      time.Duration // when its body had been read
	lateness time.Duration // open loop: timer overshoot on an idle connection
	idle     bool          // open loop: the connection was idle at the due time
	status   int
	cache    string  // X-Cache
	shard    string  // X-Mirage-Shard
	ok       bool    // 200 with the expected bytes
	req      string  // traced passes: the X-Request-ID sent
	host     float64 // factor to the reference host speed (see hostSpeed)
}

func (s sample) latency() time.Duration { return s.end - s.start }

// refLatency is the latency at the reference host speed.
func (s sample) refLatency() time.Duration { return scaled(s.latency(), s.host) }

// atHost sets the host-speed factor of every sample in ss to f.
func atHost(ss []sample, f float64) []sample {
	for i := range ss {
		ss[i].host = f
	}
	return ss
}

// target is where a loop sends its requests and how it judges the replies.
type target struct {
	base string
	// check judges one reply to reqs[idx]. It runs on the lanes'
	// goroutines concurrently; body is only valid during the call.
	check func(idx, status int, h http.Header, body []byte) bool
	// rec, when set, records a client span per request and sends its ID as
	// X-Request-ID, which the server honours in its own spans.
	rec *recorder
}

// send issues one request on the lane and fills in everything but the
// timing rule's start and lateness.
func (l *lane) send(t *target, reqs []request, idx int, epoch time.Time) sample {
	r := reqs[idx]
	s := sample{idx: idx, host: 1}
	hreq, err := http.NewRequest(http.MethodPost, t.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.end = time.Since(epoch)
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	if t.rec != nil {
		l.seq++
		s.req = fmt.Sprintf("l%d-%d", l.id, l.seq)
		hreq.Header.Set("X-Request-ID", s.req)
	}
	s.sent = time.Since(epoch)
	resp, err := l.client.Do(hreq)
	if err == nil {
		l.buf.Reset()
		_, err = l.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.end = time.Since(epoch)
	if err != nil {
		return s
	}
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	s.shard = resp.Header.Get("X-Mirage-Shard")
	s.ok = t.check(idx, s.status, resp.Header, l.buf.Bytes())
	if t.rec != nil {
		t.rec.add(span{layer: "client", name: r.path, req: s.req, label: s.cache, parent: -1,
			lane: int32(l.id), start: t.rec.since(epoch, s.sent), end: t.rec.since(epoch, s.end)})
	}
	return s
}

// closedLoop runs one caller per lane, each sending its next request as soon
// as the previous one completes, until every entry of order has been sent.
// It returns the samples and the time from start to the last completion.
func closedLoop(t *target, reqs []request, order []int, lanes []*lane) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, len(lanes))
	epoch := time.Now()
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				s := l.send(t, reqs, order[k], epoch)
				s.start = s.sent
				per[i] = append(per[i], s)
			}
		}(i, l)
	}
	wg.Wait()
	var out []sample
	var wall time.Duration
	for _, ss := range per {
		for _, s := range ss {
			wall = max(wall, s.end)
		}
		out = append(out, ss...)
	}
	return out, wall
}

// openLoop sends order[i] at arrivals[i] regardless of how earlier requests
// fare, spreading requests round-robin over the lanes. Each request is
// timed by timedFrom: a connection still busy at the due time counts the
// wait as latency; an idle one counts timer overshoot as lateness.
func openLoop(t *target, reqs []request, order []int, arrivals []time.Duration, lanes []*lane) []sample {
	per := make([][]sample, len(lanes))
	epoch := time.Now()
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l *lane) {
			defer wg.Done()
			connFree := time.Duration(math.MinInt64)
			for k := i; k < len(order); k += len(lanes) {
				due := arrivals[k]
				if d := due - time.Since(epoch); d > 0 && connFree <= due {
					time.Sleep(d)
				}
				s := l.send(t, reqs, order[k], epoch)
				s.start, s.lateness = timedFrom(due, connFree, s.sent)
				s.idle = connFree <= due
				connFree = s.end
				per[i] = append(per[i], s)
			}
		}(i, l)
	}
	wg.Wait()
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// latenciesMS returns each sample's latency at the reference host speed in
// ms; a failed request counts as missing every latency limit, so it sorts
// last.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = ms(s.refLatency())
		}
	}
	return out
}

// goodput counts successful completions within limit per second of wall,
// both at the reference host speed.
func goodput(ss []sample, wall, limit time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	n := 0
	for _, s := range ss {
		if s.ok && s.refLatency() <= limit {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
