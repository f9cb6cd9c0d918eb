package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"rteaal/internal/server"
	"rteaal/sim"
	"rteaal/sim/client"
)

// service is the httpService workload after set-up: a loopback server and
// its closed-loop clients, each waiting for a reply before sending its next
// script.
type service struct {
	w       *workload
	src     string
	stim    sim.Stimulus // the seeded source of every poke value
	srv     *server.Server
	ts      *httptest.Server
	clients []*client.Client
	hash    string
	pokes   [2]string // the two inputs every script pokes
	peeks   [2]string // the two outputs every script peeks
	perConn int64     // frozen requests per client per window
	// firstPeeks holds, per client, the values its first session peeked in
	// the latest window, for the reference check.
	firstPeeks [][]uint64
}

// clientsPerCPU callers per CPU keep every CPU busy while half the callers
// wait on the socket. With one caller per CPU the host's idle-wake latency,
// not the program, sets the rate, and runs of the same code scatter by 12 %;
// with two they scatter by 4 %.
const clientsPerCPU = 2

func setUpService(w *workload, in *inputs, seed int64) (runner, error) {
	s := &service{w: w, src: in.src, stim: sim.RandomStimulus(seed), srv: server.New(server.Config{}), perConn: w.windowWork()}
	s.ts = httptest.NewServer(s.srv)
	for c := 0; c < clientsPerCPU*w.workers(); c++ {
		s.clients = append(s.clients, client.New(s.ts.URL, client.WithClientID(fmt.Sprintf("bench-%d", c))))
	}
	s.firstPeeks = make([][]uint64, len(s.clients))
	ctx := context.Background()
	cr, err := s.clients[0].Compile(ctx, s.src, server.CompileOptions{})
	if err != nil {
		s.close()
		return nil, err
	}
	if len(cr.Inputs) < 2 || len(cr.Outputs) < 2 {
		s.close()
		return nil, fmt.Errorf("design %s has too few ports for the script", cr.Design)
	}
	s.hash = cr.Hash
	s.pokes = [2]string{cr.Inputs[0], cr.Inputs[1]}
	s.peeks = [2]string{cr.Outputs[0], cr.Outputs[1]}
	first, err := s.clients[0].NewSession(ctx, s.hash, 0)
	if err != nil {
		s.close()
		return nil, err
	}
	// Set-up ends with the first session open; the windows open their own.
	if err := first.Close(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
}

// pokeValue is the seeded value request r of client c drives onto input i.
func (s *service) pokeValue(c int, r int64, i int) uint64 {
	return s.stim.Value(r, c, i)
}

// script is request r of client c: poke two inputs, step, peek two outputs.
func (s *service) script(c int, r int64) *client.Script {
	return client.NewScript().
		Poke(s.pokes[0], s.pokeValue(c, r, 0)).
		Poke(s.pokes[1], s.pokeValue(c, r, 1)).
		Step(stepsPerRequest).
		Peek(s.peeks[0]).
		Peek(s.peeks[1])
}

// clientResult is what one client saw in one window.
type clientResult struct {
	ops    []float64 // request latencies, ms
	failed int64
	digest *digest // every peeked value, in request order
	err    error
}

// window runs every client's frozen request list concurrently.
func (s *service) window(tr *tracer, parent int) (windowResult, error) {
	win := tr.begin("window", parent)
	defer tr.end(win)
	results := make([]clientResult, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = s.clientLoop(c, tr, win)
		}(c)
	}
	wg.Wait()
	wr := windowResult{wall: time.Since(start)}
	d := newDigest()
	for _, res := range results {
		if res.err != nil {
			return wr, res.err
		}
		wr.ops = append(wr.ops, res.ops...)
		wr.failed += res.failed
		d.fold(res.digest.h)
	}
	wr.work = float64(len(wr.ops) * stepsPerRequest)
	wr.digest = d.String()
	return wr, nil
}

// clientLoop sends client c's requests one after another, each after the
// reply to the one before. It starts on a fresh session, and after every
// chunk of requests closes it, re-posts the design (a cache hit) and opens
// another, so the pool and the cache stay in the path. A failed request is
// counted; only failing to get a session at all ends the loop early.
func (s *service) clientLoop(c int, tr *tracer, win int) clientResult {
	ctx := context.Background()
	cl := s.clients[c]
	res := clientResult{ops: make([]float64, 0, s.perConn), digest: newDigest()}
	s.firstPeeks[c] = s.firstPeeks[c][:0]
	var sess *client.Session
	for r := int64(0); r < s.perConn; r++ {
		if r%s.w.chunk == 0 {
			if sess != nil {
				if res.err = sess.Close(ctx); res.err != nil {
					return res
				}
				if _, res.err = cl.Compile(ctx, s.src, server.CompileOptions{}); res.err != nil {
					return res
				}
			}
			if sess, res.err = cl.NewSession(ctx, s.hash, 0); res.err != nil {
				return res
			}
		}
		req := tr.begin("request", win)
		script := s.script(c, r)
		do := tr.begin("client.do", req)
		start := time.Now()
		reply, err := sess.Do(ctx, script)
		res.ops = append(res.ops, time.Since(start).Seconds()*1e3)
		tr.end(do)
		if err != nil || len(reply.Outcomes) != 5 {
			res.failed++
		} else {
			for _, o := range reply.Outcomes[3:] {
				res.digest.fold(o.Value)
				if r < s.w.chunk {
					s.firstPeeks[c] = append(s.firstPeeks[c], o.Value)
				}
			}
		}
		tr.end(req)
	}
	res.err = sess.Close(ctx)
	return res
}

// check replays each client's first session on an in-process sim.Session
// compiled from the same text and compares every peek.
func (s *service) check(in *inputs, _ int) (compared, differed int64, err error) {
	d, err := sim.Compile(in.src)
	if err != nil {
		return 0, 0, err
	}
	for c := range s.clients {
		sess := d.NewSession()
		got := s.firstPeeks[c]
		for r := int64(0); r < min(s.w.chunk, s.perConn); r++ {
			for i, name := range s.pokes {
				if err := sess.Poke(name, s.pokeValue(c, r, i)); err != nil {
					return compared, differed, err
				}
			}
			if err := sess.Run(stepsPerRequest); err != nil {
				return compared, differed, err
			}
			for i, name := range s.peeks {
				want, err := sess.Peek(name)
				if err != nil {
					return compared, differed, err
				}
				compared++
				if k := int(r)*2 + i; k >= len(got) || got[k] != want {
					differed++
				}
			}
		}
	}
	return compared, differed, nil
}
