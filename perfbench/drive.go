package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"hybridstore/internal/client"
	"hybridstore/internal/value"
)

// stmt is one statement of a client's fixed sequence.
type stmt struct {
	tmpl   string          // template name (per-template latency and oracle)
	write  bool            // DML or COPY
	adhoc  string          // ad-hoc SQL with inline literals; empty for prepared templates
	params []value.Value   // prepared-statement parameters
	rows   [][]value.Value // COPY rows (tmpl "copy")
	bytes  int64           // user bytes the statement writes
}

// share is one template's percentage of a statement mix.
type share struct {
	tmpl string
	pct  int
}

// mix returns n template names with each template's exact share (the
// rounding remainder goes to the first), in a seeded random order, so
// two seeds differ in order and parameters but not in mix.
func mix(rng *rand.Rand, n int, shares ...share) []string {
	out := make([]string, 0, n)
	for _, s := range shares {
		for i := 0; i < n*s.pct/100; i++ {
			out = append(out, s.tmpl)
		}
	}
	for len(out) < n {
		out = append(out, shares[0].tmpl)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// outcome is one statement's client-observed result.
type outcome struct {
	lat    time.Duration // client round trip
	server time.Duration // server-reported execution time
	res    *client.Result
	err    error
	copied int // rows acknowledged by a COPY
}

// phase drives fixed statement sequences, one per client, closed-loop:
// each client sends its next statement only after the previous reply.
type phase struct {
	texts map[string]string // prepared template name -> SQL text
	table string            // COPY target
	width int               // COPY row width
	tr    *tracer           // nil in untraced runs
	// rounds splits the sequences into back-to-back rounds (0 = one).
	rounds int
	// after runs on the client's goroutine after each statement (nil =
	// none); the bulk-ingest reader checks use it.
	after func(client, i int, s *stmt, o *outcome)
	// pre runs on the client's goroutine before each statement (nil =
	// none). It may wait (the bulk-ingest reader waits for the ingest's
	// progress) or execute the statement in-process and return done (the
	// traced bulk-ingest run times db.CopyRows this way).
	pre func(client, i int, s *stmt) (o outcome, done bool)
}

// timing is a phase's wall time and the completed statements per second
// of each of its rounds.
type timing struct {
	elapsed  time.Duration
	roundOps []float64
}

// phaseRounds splits a measured phase into this many back-to-back
// rounds; ops_per_s is the median round's, so a burst of load from
// outside the benchmark in one round does not move it.
const phaseRounds = 5

// run executes the sequences in p.rounds rounds (at least one): round k
// runs the k-th slice of every client's sequence, and the next round
// starts when every client has finished its slice.
func (p *phase) run(conns []*client.Conn, streams [][]stmt) ([][]outcome, timing, error) {
	ctx := context.Background()
	prepared := make([]map[string]*client.Stmt, len(conns))
	for i, c := range conns {
		prepared[i] = map[string]*client.Stmt{}
		for name, text := range p.texts {
			st, err := c.Prepare(ctx, text)
			if err != nil {
				return nil, timing{}, fmt.Errorf("prepare %s: %w", name, err)
			}
			prepared[i][name] = st
		}
	}
	outs := make([][]outcome, len(streams))
	for ci := range streams {
		outs[ci] = make([]outcome, len(streams[ci]))
	}
	rounds := max(p.rounds, 1)
	var tm timing
	for k := 0; k < rounds; k++ {
		start := time.Now()
		parallel(len(streams), func(ci int) {
			n := len(streams[ci])
			p.runSlice(ctx, conns[ci], prepared[ci], ci, streams[ci], outs[ci], k*n/rounds, (k+1)*n/rounds)
		})
		el := time.Since(start)
		tm.elapsed += el
		done := 0
		for ci := range streams {
			n := len(streams[ci])
			for _, o := range outs[ci][k*n/rounds : (k+1)*n/rounds] {
				if o.err == nil {
					done++
				}
			}
		}
		tm.roundOps = append(tm.roundOps, float64(done)/el.Seconds())
	}
	return outs, tm, nil
}

// runSlice executes statements [lo, hi) of one client's sequence.
func (p *phase) runSlice(ctx context.Context, c *client.Conn, prepared map[string]*client.Stmt, ci int, stream []stmt, outs []outcome, lo, hi int) {
	var busy time.Duration
	t0 := time.Now()
	for i := lo; i < hi; i++ {
		s := &stream[i]
		o, done := outcome{}, false
		traced := p.tr != nil && p.tr.sampled(i, s)
		if p.pre != nil {
			o, done = p.pre(ci, i, s)
		}
		if !done && traced && s.write && s.rows == nil {
			o, done = p.tr.dml(ctx, p.texts, s), true
		}
		if !done {
			o = p.exec(ctx, c, prepared, s)
		}
		outs[i] = o
		if traced && !s.write && o.err == nil {
			busy += p.tr.replay(ctx, c, p.texts, s, &o)
		}
		if p.after != nil {
			p.after(ci, i, s, &o)
		}
	}
	if p.tr != nil {
		p.tr.addBusy(busy, time.Since(t0))
	}
}

// exec sends one statement over the wire and times the round trip.
func (p *phase) exec(ctx context.Context, c *client.Conn, prepared map[string]*client.Stmt, s *stmt) outcome {
	var o outcome
	start := time.Now()
	switch {
	case s.rows != nil:
		cp, err := c.CopyIn(ctx, p.table, p.width)
		if err == nil {
			for _, row := range s.rows {
				if err = cp.Send(row...); err != nil {
					break
				}
			}
			n, cerr := cp.Close()
			o.copied = n
			if err == nil {
				err = cerr
			}
		}
		o.err = err
	case s.adhoc != "":
		o.res, o.err = c.Query(ctx, s.adhoc)
	case s.write:
		o.res, o.err = prepared[s.tmpl].Exec(ctx, s.params...)
	default:
		o.res, o.err = prepared[s.tmpl].Query(ctx, s.params...)
	}
	o.lat = time.Since(start)
	if o.res != nil {
		o.server = o.res.Duration
	}
	return o
}

// phaseStats summarizes a phase's outcomes.
type phaseStats struct {
	attempted, failed int
	reads, writes     latencies
	overhead          latencies // client latency minus server-reported time
	byTmpl            map[string]latencies
	writeBytes        int64
	copied            int
	timing
}

func summarize(streams [][]stmt, outs [][]outcome, tm timing) *phaseStats {
	ps := &phaseStats{byTmpl: map[string]latencies{}, timing: tm}
	for ci := range streams {
		for i := range streams[ci] {
			s, o := &streams[ci][i], &outs[ci][i]
			ps.attempted++
			if o.err != nil {
				ps.failed++
				continue
			}
			if s.write {
				ps.writes = append(ps.writes, o.lat)
				ps.writeBytes += s.bytes
				ps.copied += o.copied
			} else {
				ps.reads = append(ps.reads, o.lat)
				if o.server > 0 {
					ps.overhead = append(ps.overhead, o.lat-o.server)
				}
			}
			ps.byTmpl[s.tmpl] = append(ps.byTmpl[s.tmpl], o.lat)
		}
	}
	return ps
}

// opsPerS is the median round's completed statements per second.
func (ps *phaseStats) opsPerS() float64 {
	return median(ps.roundOps)
}

// firstError returns the first failed statement's error, for reports.
func firstError(streams [][]stmt, outs [][]outcome) error {
	for ci := range outs {
		for i := range outs[ci] {
			if outs[ci][i].err != nil {
				return fmt.Errorf("%s statement %d of client %d: %w", streams[ci][i].tmpl, i, ci, outs[ci][i].err)
			}
		}
	}
	return nil
}

// warmUp runs each client's sequence once untimed, so caches fill and
// lazy set-up finishes before timing.
func warmUp(p *phase, conns []*client.Conn, streams [][]stmt) error {
	w := *p
	w.tr, w.after, w.pre = nil, nil, nil
	outs, _, err := w.run(conns, streams)
	if err != nil {
		return err
	}
	if err := firstError(streams, outs); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	settle()
	return nil
}
