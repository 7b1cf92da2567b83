package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
	"hybridstore/internal/value"
)

// bulk-ingest: one client streams COPY statements into a preloaded
// column table on the durable engine (fsync group commit) while the
// other runs a prepared grouped aggregate over the same table. Delta
// appends, inline merges under the engine write lock, COPY frames and
// per-frame group commit do the work. Each merge stalls at most one
// read; read_p99_ms rises once a change makes stalls hit more than 1%
// of the reads.
const (
	ingestBaseRows = 60_000
	ingestBatch    = 2_000
	ingestGroups   = 16
	ingestWindow   = 2_000 // ids a read covers below its progress mark
	// ingestRowRate and ingestReadRate size the measured phase: rows and
	// reader statements per --seconds.
	ingestRowRate  = 30_000
	ingestReadRate = 250
)

var ingestTexts = map[string]string{
	"group": "SELECT grp, COUNT(*), SUM(val) FROM events WHERE id >= ? GROUP BY grp",
}

func ingestSchema() *schema.Table {
	return schema.MustNew("events", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "grp", Type: value.Integer},
		{Name: "val", Type: value.Double},
		{Name: "tag", Type: value.Varchar},
	}, "id")
}

// ingestRows generates rows [lo, hi) of the events table. Values depend
// on the seed and the id only, so any subset can be regenerated.
func ingestRows(seed uint64, lo, hi int) [][]value.Value {
	rows := make([][]value.Value, 0, hi-lo)
	for id := lo; id < hi; id++ {
		rng := rand.New(rand.NewPCG(seed, uint64(id)))
		rows = append(rows, []value.Value{
			value.NewBigint(int64(id)),
			value.NewInt(int64(rng.IntN(ingestGroups))),
			value.NewDouble(rng.Float64()*100 + 0.25),
			value.NewVarchar(fmt.Sprintf("t%03d", rng.IntN(500))),
		})
	}
	return rows
}

// idDifferential checks the table holds ids [0, n) exactly once: the
// count, the id sum, minimum and maximum.
func idDifferential(rows [][]value.Value, n int64) error {
	if len(rows) != 1 || len(rows[0]) != 4 {
		return fmt.Errorf("differential: unexpected result shape %v", rows)
	}
	r := rows[0]
	if got := int64(r[0].Float()); got != n {
		return fmt.Errorf("differential: %d rows, want %d", got, n)
	}
	if got, want := r[1].Float(), float64(n*(n-1)/2); got != want {
		return fmt.Errorf("differential: id sum %v, want %v", got, want)
	}
	if lo, hi := r[2].Int(), r[3].Int(); lo != 0 || hi != n-1 {
		return fmt.Errorf("differential: ids [%d,%d], want [0,%d]", lo, hi, n-1)
	}
	return nil
}

const ingestDiffSQL = "SELECT COUNT(*), SUM(id), MIN(id), MAX(id) FROM events"

// localQuery runs a read statement in-process.
func localQuery(db *engine.Database, text string) ([][]value.Value, error) {
	st, err := sql.Parse(text, resolver(db))
	if err != nil {
		return nil, err
	}
	res, err := db.ExecContext(context.Background(), st.Query)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// ingestStreams builds the ingest client's COPY statements and the
// reader's statements for a phase of the given rounds. Read i may start
// once need[i] rows are acknowledged, about i*rows/reads but never more
// than the ingest acknowledges within read i's round, and aggregates the
// ids from ingestWindow below that mark upward, so every read covers
// about the same number of rows whatever the relative pace of the two
// clients.
func ingestStreams(seed uint64, base, rows, reads, rounds int) (streams [][]stmt, need []int64) {
	var copies []stmt
	for lo := base; lo < base+rows; lo += ingestBatch {
		hi := min(lo+ingestBatch, base+rows)
		batch := ingestRows(seed, lo, hi)
		var b int64
		for _, row := range batch {
			b += rowBytes(row)
		}
		copies = append(copies, stmt{tmpl: "copy", write: true, rows: batch, bytes: b})
	}
	rounds = max(rounds, 1)
	readers := make([]stmt, reads)
	need = make([]int64, reads)
	for i := range readers {
		k := 0 // read i's round, as phase.run slices the sequence
		for i >= (k+1)*reads/rounds {
			k++
		}
		roundEnd := int64(min((k+1)*len(copies)/rounds*ingestBatch, rows))
		need[i] = min(int64(i)*int64(rows)/int64(reads), roundEnd)
		from := max(int64(base)+need[i]-ingestWindow, 0)
		readers[i] = stmt{tmpl: "group", params: []value.Value{value.NewBigint(from)}}
	}
	return [][]stmt{copies, readers}, need
}

// checkVisible checks the ingested rows one read saw against the
// previous read's, the rows acknowledged before it was sent and the
// rows sent when it returned.
func checkVisible(visible, last, acked, sent int64) error {
	switch {
	case visible < last:
		return fmt.Errorf("reader count went back: %d ingested rows after %d", visible, last)
	case visible < acked:
		return fmt.Errorf("reader saw %d ingested rows, %d were acknowledged before it", visible, acked)
	case visible > sent:
		return fmt.Errorf("reader saw %d ingested rows, only %d sent", visible, sent)
	}
	return nil
}

// progress is the ingest client's acknowledged row count, which paces
// the reader.
type progress struct {
	mu    sync.Mutex
	cond  *sync.Cond
	acked int64
	done  bool
}

func newProgress() *progress {
	p := &progress{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *progress) add(n int64, done bool) {
	p.mu.Lock()
	p.acked += n
	p.done = p.done || done
	p.mu.Unlock()
	p.cond.Broadcast()
}

// wait blocks until n rows are acknowledged or the ingest has ended.
func (p *progress) wait(n int64) {
	p.mu.Lock()
	for p.acked < n && !p.done {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

func runIngest(cfg config) *report {
	r := newReport("bulk-ingest")
	hostNote(r, cfg)
	base := max(int(ingestBaseRows*cfg.scale), 5000)
	var baseBytes int64
	su, err := setup(cfg, func(db *engine.Database) (int64, time.Duration, error) {
		rows := ingestRows(cfg.seed, 0, base)
		baseBytes = 0
		for _, row := range rows {
			baseBytes += rowBytes(row)
		}
		if err := db.CreateTable(ingestSchema(), catalog.ColumnStore); err != nil {
			return 0, 0, err
		}
		if err := loadBatches(db, "events", rows); err != nil {
			return 0, 0, err
		}
		c0 := time.Now()
		if err := db.Compact("events"); err != nil {
			return 0, 0, err
		}
		return baseBytes, time.Since(c0), nil
	})
	if err != nil {
		return r.fail(err)
	}
	s := su.srv
	r.set("setup_s", su.setupS, "s", setupRepeats)
	r.set("colstore.compact_ms", su.compactMS, "ms", setupRepeats)

	conns, err := dial(s, 2)
	if err != nil {
		s.stop()
		return r.fail(err)
	}
	// Warm-up: reads of the base only, so the measured phase starts from
	// exactly the base.
	p := &phase{texts: ingestTexts, table: "events", width: 4, rounds: phaseRounds}
	warm, _ := ingestStreams(cfg.seed, base, 0, max(int(ingestReadRate*cfg.scale), 10), 1)
	if err := warmUp(p, conns, [][]stmt{nil, warm[1]}); err != nil {
		closeAll(conns)
		s.stop()
		return r.fail(err)
	}
	rows := max(int(float64(ingestRowRate*cfg.seconds)*cfg.scale), 2*ingestBatch)
	reads := max(int(float64(ingestReadRate*cfg.seconds)*cfg.scale), 20)
	streams, need := ingestStreams(cfg.seed, base, rows, reads, p.rounds)

	// The reader checks every answer as it arrives. Batches land in id
	// order, so the visible ingested rows are a prefix of the stream and
	// their number follows from the count of ids >= the read's lower
	// bound. It never decreases, covers at least the rows acknowledged
	// before the read was sent, and never exceeds the rows sent (a batch
	// is visible once applied, just before its durability wait returns).
	var sent atomic.Int64
	prog := newProgress()
	var lastSeen int64
	var readerErr error
	var merges, mergeRows, prevDelta int64
	var batchLat latencies
	p.pre = func(ci, i int, st *stmt) (outcome, bool) {
		if ci == 1 {
			prog.wait(need[i])
			return outcome{}, false
		}
		sent.Add(int64(len(st.rows)))
		if !cfg.trace {
			return outcome{}, false
		}
		// Traced run: every COPY statement is applied in-process through
		// db.CopyRows and timed.
		t0 := time.Now()
		res, err := s.db.CopyRows(context.Background(), "events", st.rows)
		o := outcome{lat: time.Since(t0), err: err}
		if err == nil {
			o.copied = res.Affected
			batchLat = append(batchLat, o.lat)
		}
		return o, true
	}
	p.after = func(ci, i int, st *stmt, o *outcome) {
		if ci == 0 {
			// A failed batch ends the pacing, so the reader cannot wait
			// for rows that will never be acknowledged.
			prog.add(int64(o.copied), o.err != nil || i == len(streams[0])-1)
			if cfg.trace {
				// Count the inline merges the batch triggered and the
				// rows each rewrote.
				if d, err := s.db.DeltaRows("events"); err == nil {
					if int64(d) < prevDelta+int64(len(st.rows)) {
						merges++
						n, _ := s.db.Rows("events")
						mergeRows += int64(n)
					}
					prevDelta = int64(d)
				}
			}
			return
		}
		if o.err != nil || readerErr != nil {
			return
		}
		limit := sent.Load()
		var count int64
		for _, row := range o.res.Rows {
			count += int64(row[1].Float())
		}
		visible := count + st.params[0].Int() - int64(base)
		readerErr = checkVisible(visible, lastSeen, need[i], limit)
		lastSeen = visible
	}
	if cfg.trace {
		p.tr = newTracer(s.db, 8)
	}
	if d, err := s.db.DeltaRows("events"); err == nil {
		prevDelta = int64(d)
	}
	resetPeakRSS()
	before := s.probe()
	outs, elapsed, err := p.run(conns, streams)
	after := s.probe()
	if err != nil {
		closeAll(conns)
		s.stop()
		return r.fail(err)
	}
	ps := summarize(streams, outs, elapsed)
	r.attempted, r.failed = ps.attempted, ps.failed
	r.check(ps.failed == 0, "%v", firstError(streams, outs))
	if readerErr != nil {
		r.check(false, "%v", readerErr)
	}
	total := int64(base) + int64(ps.copied)
	r.check(ps.copied == rows, "%d rows acknowledged, %d sent", ps.copied, rows)
	res, err := conns[0].Query(context.Background(), ingestDiffSQL)
	closeAll(conns)
	if err != nil {
		s.stop()
		return r.fail(err)
	}
	r.check(idDifferential(res.Rows, total) == nil, "%v", idDifferential(res.Rows, total))

	var ingestTime time.Duration
	for _, o := range outs[0] {
		ingestTime += o.lat
	}
	r.set("ops_per_s", ps.opsPerS(), "1/s", ps.attempted)
	r.setQuantile("read_p50_ms", ps.reads, 0.5, "ms")
	r.setQuantile("read_p99_ms", ps.reads, 0.99, "ms")
	r.set("rows_per_s", float64(ps.copied)/ingestTime.Seconds(), "1/s", ps.copied)
	templateLatencies(r, ps)
	writeAmp(r, before, after, ps)
	spaceAmp(r, s.db, baseBytes+ps.writeBytes, "events")
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)

	if cfg.trace {
		r.setQuantile("colstore.copy_batch_p50_ms", batchLat, 0.5, "ms")
		r.setQuantile("colstore.copy_batch_p90_ms", batchLat, 0.9, "ms")
		r.set("colstore.merges", float64(merges), "count", len(streams[0]))
		r.set("colstore.merge_rows_per_row", ratio(float64(mergeRows), float64(ps.copied)), "ratio", ps.copied)
		p.tr.finish(r, cfg, before, after, ps)
	}
	rec, err := crashAndRecover(cfg, s, func(db *engine.Database) error {
		rows, err := localQuery(db, ingestDiffSQL)
		if err != nil {
			return err
		}
		return idDifferential(rows, total)
	})
	if err != nil {
		return r.fail(err)
	}
	r.set("recovery_s", rec, "s", recoveryRepeats)
	return r
}
