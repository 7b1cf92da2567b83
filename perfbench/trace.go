package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
)

// span is one timed call at a layer boundary. Spans of one statement
// share Stmt; Parent is the causing span's ID (0 for a root).
type span struct {
	Stmt     uint64 `json:"stmt"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	ServerNs int64  `json:"server_ns,omitempty"`
}

// tracer replays a sampled subset of statements in-process against the
// live engine, timing each layer's public entry point from the
// benchmark's own code: sql.Parse or Prepared.Bind, db.PlanQuery, then
// db.ExecPlannedContext or db.ExecContext. The client round trip is the
// root span. Spans stay in memory until the run ends.
type tracer struct {
	db      *engine.Database
	every   int
	t0      time.Time
	resolve func(string) *schema.Table

	mu      sync.Mutex
	spans   []span
	nextID  uint64
	pps     map[string]*sql.Prepared
	busy    time.Duration // replay time
	running time.Duration // client time
}

func newTracer(db *engine.Database, every int) *tracer {
	return &tracer{db: db, every: every, t0: time.Now(), resolve: resolver(db), pps: map[string]*sql.Prepared{}}
}

// sampled picks every t.every-th statement of a client and every ad-hoc
// statement, which are few but the only users of sql.Parse.
func (t *tracer) sampled(i int, s *stmt) bool { return i%t.every == 0 || s.adhoc != "" }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a child span of a statement's root span.
func (t *tracer) add(stmtID, parent uint64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{Stmt: stmtID, ID: t.nextID, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(end)})
}

func (t *tracer) addBusy(busy, running time.Duration) {
	t.mu.Lock()
	t.busy += busy
	t.running += running
	t.mu.Unlock()
}

// prepared returns the shared tokenized template, as the server's
// statement cache holds it.
func (t *tracer) prepared(text string) (*sql.Prepared, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pp, ok := t.pps[text]; ok {
		return pp, nil
	}
	pp, err := sql.Prepare(text)
	if err != nil {
		return nil, err
	}
	t.pps[text] = pp
	return pp, nil
}

// dml executes a sampled DML statement in-process instead of over the
// wire, so the engine does the same work the wire would have asked for
// (replaying it after the round trip would find the row already
// updated). The in-process call is the root span.
func (t *tracer) dml(ctx context.Context, texts map[string]string, s *stmt) outcome {
	start := time.Now()
	o := outcome{}
	pp, err := t.prepared(texts[s.tmpl])
	if err != nil {
		o.err = err
		return o
	}
	t.mu.Lock()
	t.nextID++
	root := t.nextID
	t.mu.Unlock()
	b0 := time.Now()
	st, err := pp.Bind(t.resolve, s.params)
	if err != nil {
		o.err = err
		return o
	}
	e0 := time.Now()
	t.add(root, root, "sql.bind", b0, e0)
	res, err := t.db.ExecContext(ctx, st.Query)
	end := time.Now()
	o.lat, o.err = end.Sub(start), err
	if err != nil {
		return o
	}
	t.add(root, root, "engine.dml", e0, end)
	o.res = &client.Result{Affected: res.Affected, Duration: res.Duration}
	o.server = res.Duration
	t.mu.Lock()
	t.spans = append(t.spans, span{Stmt: root, ID: root, Name: "local." + s.tmpl, Start: t.ns(start), End: t.ns(end), ServerNs: res.Duration.Nanoseconds()})
	t.mu.Unlock()
	return o
}

// replay records the root span of a completed read and replays it
// through the layers in-process. It returns the time the replay took.
func (t *tracer) replay(ctx context.Context, c *client.Conn, texts map[string]string, s *stmt, o *outcome) time.Duration {
	begin := time.Now()
	end := begin
	start := end.Add(-o.lat)
	t.mu.Lock()
	t.nextID++
	root := t.nextID
	t.spans = append(t.spans, span{Stmt: root, ID: root, Name: "client." + s.tmpl, Start: t.ns(start), End: t.ns(end), ServerNs: o.server.Nanoseconds()})
	t.mu.Unlock()

	p0 := time.Now()
	if c.Ping(ctx) == nil {
		t.add(root, root, "wire.ping", p0, time.Now())
	}
	var st *sql.Statement
	var err error
	b0 := time.Now()
	if s.adhoc != "" {
		st, err = sql.Parse(s.adhoc, t.resolve)
		if err != nil {
			return time.Since(begin)
		}
		t.add(root, root, "sql.parse", b0, time.Now())
	} else {
		pp, perr := t.prepared(texts[s.tmpl])
		if perr != nil {
			return time.Since(begin)
		}
		b0 = time.Now()
		st, err = pp.Bind(t.resolve, s.params)
		if err != nil {
			return time.Since(begin)
		}
		t.add(root, root, "sql.bind", b0, time.Now())
	}
	p1 := time.Now()
	pl, err := t.db.PlanQuery(st.Query)
	if err != nil {
		return time.Since(begin)
	}
	t.add(root, root, "plan.build", p1, time.Now())
	e0 := time.Now()
	if _, err := t.db.ExecPlannedContext(ctx, st.Query, pl); err == nil {
		t.add(root, root, "engine.read."+s.tmpl, e0, time.Now())
	}
	return time.Since(begin)
}

// durations returns the durations of the spans whose name matches.
func (t *tracer) durations(match func(name string) bool) latencies {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out latencies
	for _, s := range t.spans {
		if match(s.Name) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes derives each span name's total self time: a span's duration
// minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		covered := int64(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		cur := s.Start
		for _, k := range cs {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish reports a traced run's per-layer metrics, those derived from
// the probes around the measured phase and those derived from the spans,
// and writes the spans next to the run's data directory.
func (t *tracer) finish(r *report, cfg config, before, after probe, ps *phaseStats) {
	phaseLayers(r, before, after, ps)
	t.layerMetrics(r, filepath.Join(filepath.Dir(cfg.dataDir), fmt.Sprintf("spans-%s-%d.jsonl", r.workload, cfg.seed)))
}

// layerMetrics fills the span-derived per-layer metrics shared by every
// workload and reports each layer's self time.
func (t *tracer) layerMetrics(r *report, path string) {
	is := func(name string) func(string) bool { return func(n string) bool { return n == name } }
	r.setQuantile("wire.ping_p50_us", t.durations(is("wire.ping")), 0.5, "us")
	r.setQuantile("sql.parse_p50_us", t.durations(is("sql.parse")), 0.5, "us")
	r.setQuantile("sql.bind_p50_us", t.durations(is("sql.bind")), 0.5, "us")
	r.setQuantile("plan.build_p50_us", t.durations(is("plan.build")), 0.5, "us")
	r.setQuantile("engine.dml_p50_ms", t.durations(is("engine.dml")), 0.5, "ms")
	r.setQuantile("engine.read_p50_ms", t.durations(func(n string) bool {
		return strings.HasPrefix(n, "engine.read.")
	}), 0.5, "ms")
	t.mu.Lock()
	busy, running, n := t.busy, t.running, len(t.spans)
	templates := map[string]bool{}
	for _, s := range t.spans {
		if tm, ok := strings.CutPrefix(s.Name, "engine.read."); ok {
			templates[tm] = true
		}
	}
	t.mu.Unlock()
	for tm := range templates {
		r.setQuantile("engine.read_p50_ms."+tm, t.durations(is("engine.read."+tm)), 0.5, "ms")
	}
	r.set("trace.overhead_pct", 100*ratio(busy.Seconds(), running.Seconds()), "%", n)
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.note("self time %-22s %10.3f ms", k, float64(self[k])/1e6)
	}
	if err := t.write(path); err != nil {
		r.note("spans not written: %v", err)
	} else {
		r.note("%d spans written to %s", n, path)
	}
}
