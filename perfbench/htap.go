package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"hybridstore/internal/advisor"
	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/migrate"
	"hybridstore/internal/monitor"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// htap-advised: a row-store orders table takes prepared point reads and
// single-row updates on a hot 10% key range, plus ad-hoc analytics with
// inline literals drawn from about 1,500 distinct texts, far more than
// the 256-entry statement cache holds. The first phase is the monitor's
// observation window; then the benchmark calls Manager.Advise and
// Manager.Migrate itself, and the same mix with a fresh seed stream is
// the measured phase.
const (
	htapRows = 150_000
	htapDays = 360
	// htapRate sizes the measured phase (statements per --seconds); the
	// observation phase runs half as many.
	htapRate = 1100
)

var htapTexts = map[string]string{
	"point":  "SELECT cust, status, qty, price FROM orders WHERE oid = ?",
	"update": "UPDATE orders SET qty = ?, price = ? WHERE oid = ?",
}

func htapSchema() *schema.Table {
	return schema.MustNew("orders", []schema.Column{
		{Name: "oid", Type: value.Bigint},
		{Name: "cust", Type: value.Integer},
		{Name: "day", Type: value.Integer},
		{Name: "status", Type: value.Integer},
		{Name: "qty", Type: value.Integer},
		{Name: "price", Type: value.Double},
	}, "oid")
}

// htapData is the generated table and the per-day oracle of the
// analytic queries, which only read days before the hot range.
type htapData struct {
	rows     [][]value.Value
	n, hotLo int
	hotDay   int      // first day of the hot key range
	dayAgg   [][]agg3 // [day][status]: price, qty, count
}

const htapStatuses = 5

func genHTAP(seed uint64, scale float64) *htapData {
	// At least 10,000 rows, so the cold partition the migration builds
	// exceeds the column store's 4,096-row merge floor and has a main
	// fragment even at a tiny scale.
	n := max(int(htapRows*scale), 10_000)
	rng := rand.New(rand.NewPCG(seed, 0x47a))
	d := &htapData{n: n, hotLo: n - n/10}
	d.hotDay = d.hotLo * htapDays / n
	d.dayAgg = make([][]agg3, htapDays)
	for i := range d.dayAgg {
		d.dayAgg[i] = make([]agg3, htapStatuses)
	}
	for oid := 0; oid < n; oid++ {
		day := oid * htapDays / n
		status := rng.IntN(htapStatuses)
		qty := 1 + rng.IntN(50)
		price := rng.Float64()*500 + 0.5
		d.rows = append(d.rows, []value.Value{
			value.NewBigint(int64(oid)), value.NewInt(int64(rng.IntN(5000))), value.NewInt(int64(day)),
			value.NewInt(int64(status)), value.NewInt(int64(qty)), value.NewDouble(price),
		})
		a := &d.dayAgg[day][status]
		a.price += price
		a.qty += int64(qty)
		a.count++
	}
	return d
}

// htapMix keeps ad-hoc analytics at 2% of statements, about 2.4% of
// reads, so the read 99th percentile lands inside the analytic queries'
// latencies rather than on the edge between them and the point reads.
var htapMix = []share{{"point", 82}, {"update", 16}, {"adhoc", 2}}

// streams generates each client's sequence. Client c reads and
// updates only hot keys with oid%clients == c, so its reads are checked
// exactly against its own earlier updates.
func (d *htapData) streams(seed, stream uint64, perClient, clients int) [][]stmt {
	out := make([][]stmt, clients)
	hot := d.n - d.hotLo
	for c := range out {
		rng := rand.New(rand.NewPCG(seed, stream+uint64(c)))
		key := func() int64 {
			k := d.hotLo + rng.IntN(hot)
			k += c - k%clients
			if k >= d.n {
				k -= clients
			}
			if k < d.hotLo {
				k += clients
			}
			return int64(k)
		}
		for _, tmpl := range mix(rng, perClient, htapMix...) {
			var s stmt
			switch tmpl {
			case "point":
				s = stmt{tmpl: "point", params: []value.Value{value.NewBigint(key())}}
			case "update":
				s = stmt{tmpl: "update", write: true, bytes: 24, params: []value.Value{
					value.NewInt(int64(1 + rng.IntN(50))), value.NewDouble(rng.Float64()*500 + 0.5), value.NewBigint(key())}}
			default:
				// About 1,500 distinct texts of nearly equal cost: a
				// window of 18 to 22 days starting anywhere before the
				// hot range.
				w := 18 + rng.IntN(5)
				lo := rng.IntN(d.hotDay - w)
				s = stmt{tmpl: "adhoc", adhoc: fmt.Sprintf(
					"SELECT status, COUNT(*), SUM(price), SUM(qty) FROM orders WHERE day BETWEEN %d AND %d GROUP BY status", lo, lo+w-1),
					params: ints(lo, lo+w-1)}
			}
			out[c] = append(out[c], s)
		}
	}
	return out
}

// state tracks the last acknowledged qty and price of every key.
type htapState map[int64][2]value.Value

func (d *htapData) initialState() htapState {
	st := htapState{}
	for _, row := range d.rows[d.hotLo:] {
		st[row[0].Int()] = [2]value.Value{row[4], row[5]}
	}
	return st
}

// apply walks a phase's outcomes in each client's order: acknowledged
// updates advance the state, and every point read must return exactly
// the client's last acknowledged values; analytic answers must match
// the oracle.
func (d *htapData) apply(st htapState, streams [][]stmt, outs [][]outcome) (int, error) {
	checked := 0
	for ci := range streams {
		for i := range streams[ci] {
			s, o := &streams[ci][i], &outs[ci][i]
			if o.err != nil {
				continue
			}
			switch s.tmpl {
			case "update":
				st[s.params[2].Int()] = [2]value.Value{s.params[0], s.params[1]}
			case "point":
				oid := s.params[0].Int()
				want := st[oid]
				rows := o.res.Rows
				if len(rows) != 1 || rows[0][0].Int() != d.rows[oid][1].Int() || rows[0][1].Int() != d.rows[oid][3].Int() ||
					rows[0][2].Int() != want[0].Int() || rows[0][3].Double() != want[1].Double() {
					return checked, fmt.Errorf("point read of oid %d: got %v, want qty %v price %v", oid, rows, want[0], want[1])
				}
			case "adhoc":
				if err := d.verifyAdhoc(s, o.res.Rows); err != nil {
					return checked, err
				}
			}
			checked++
		}
	}
	return checked, nil
}

func (d *htapData) verifyAdhoc(s *stmt, rows [][]value.Value) error {
	lo, hi := int(s.params[0].Int()), int(s.params[1].Int())
	want := make([]agg3, htapStatuses)
	for day := lo; day <= hi; day++ {
		for g := range want {
			want[g].price += d.dayAgg[day][g].price
			want[g].qty += d.dayAgg[day][g].qty
			want[g].count += d.dayAgg[day][g].count
		}
	}
	groups := 0
	for _, w := range want {
		if w.count > 0 {
			groups++
		}
	}
	if len(rows) != groups {
		return fmt.Errorf("%s: %d groups, want %d", s.adhoc, len(rows), groups)
	}
	for _, row := range rows {
		g := int(row[0].Int())
		if g < 0 || g >= htapStatuses || want[g].count == 0 {
			return fmt.Errorf("%s: unexpected group %d", s.adhoc, g)
		}
		w := want[g]
		if row[1].Float() != float64(w.count) || !relClose(row[2].Float(), w.price) || row[3].Float() != float64(w.qty) {
			return fmt.Errorf("%s: group %d got %v, want count %d price %v qty %d", s.adhoc, g, row, w.count, w.price, w.qty)
		}
	}
	return nil
}

// checkSpec checks the recommendation is a horizontal split that keeps
// the hot key range in the row store and the rest in the column store.
// The split lands on the lowest key the observed updates touched, so it
// must fall in the first quarter of the hot range.
func (d *htapData) checkSpec(spec *catalog.PartitionSpec) error {
	if spec == nil || spec.Horizontal == nil || spec.Vertical != nil {
		return fmt.Errorf("recommendation %s is not a horizontal split", spec)
	}
	h := spec.Horizontal
	split := h.SplitVal.Int()
	if h.SplitCol != 0 || h.HotStore != catalog.RowStore || h.ColdStore != catalog.ColumnStore ||
		split < int64(d.hotLo) || split >= int64(d.hotLo+(d.n-d.hotLo)/4) {
		return fmt.Errorf("recommendation %s does not put the hot range [%d, %d) in ROW and the rest in COLUMN", spec, d.hotLo, d.n)
	}
	return nil
}

const htapHotSQL = "SELECT oid, qty, price FROM orders WHERE oid >= %d"

// verifyHot checks every hot row holds its last acknowledged values.
func verifyHot(rows [][]value.Value, st htapState) error {
	if len(rows) != len(st) {
		return fmt.Errorf("hot range has %d rows, want %d", len(rows), len(st))
	}
	for _, row := range rows {
		want, ok := st[row[0].Int()]
		if !ok || row[1].Int() != want[0].Int() || row[2].Double() != want[1].Double() {
			return fmt.Errorf("oid %d: got qty %v price %v, want %v %v", row[0].Int(), row[1], row[2], want[0], want[1])
		}
	}
	return nil
}

func runHTAP(cfg config) *report {
	r := newReport("htap-advised")
	hostNote(r, cfg)
	data := genHTAP(cfg.seed, cfg.scale)
	var userBytes int64
	for _, row := range data.rows {
		userBytes += rowBytes(row)
	}
	su, err := setup(cfg, func(db *engine.Database) (int64, time.Duration, error) {
		if err := db.CreateTable(htapSchema(), catalog.RowStore); err != nil {
			return 0, 0, err
		}
		if err := loadBatches(db, "orders", data.rows); err != nil {
			return 0, 0, err
		}
		c0 := time.Now()
		if err := db.Compact("orders"); err != nil {
			return 0, 0, err
		}
		return userBytes, time.Since(c0), nil
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
	fail := func(err error) *report {
		closeAll(conns)
		s.stop()
		return r.fail(err)
	}
	total := max(int(float64(htapRate*cfg.seconds)*cfg.scale), 400)
	state := data.initialState()
	p := &phase{texts: htapTexts, rounds: phaseRounds}
	// The warm-up's updates are tracked like any other phase's.
	warm := data.streams(cfg.seed, 100, max(total/20, 20), 2)
	wouts, _, err := (&phase{texts: htapTexts}).run(conns, warm)
	if err == nil {
		err = firstError(warm, wouts)
	}
	if err == nil {
		_, err = data.apply(state, warm, wouts)
	}
	if err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	settle()

	// Observation phase: the monitor watches it; no timer runs.
	mon := monitor.New(s.db, monitor.DefaultConfig())
	mgr := migrate.NewManager(s.db, advisor.New(costmodel.DefaultModel()), mon, migrate.DefaultConfig())
	obs := data.streams(cfg.seed, 200, total/4, 2)
	oouts, oel, err := p.run(conns, obs)
	if err != nil {
		return fail(err)
	}
	ops := summarize(obs, oouts, oel)
	checked, err := data.apply(state, obs, oouts)
	if err != nil {
		return fail(err)
	}
	r.check(ops.failed == 0, "observation phase: %v", firstError(obs, oouts))

	// Advise and migrate at a fixed statement count.
	if cfg.trace {
		t0 := time.Now()
		mon.Snapshot()
		r.set("monitor.snapshot_ms", float64(time.Since(t0))/1e6, "ms", 1)
	}
	a0 := time.Now()
	rec, err := mgr.Advise()
	if err != nil {
		return fail(err)
	}
	adviseT := time.Since(a0)
	spec := rec.Layout.SpecFor("orders")
	r.note("recommendation: %s; est. row-only %.3g ns, partitioned %.3g ns", spec, rec.RowOnlyCost, rec.PartitionedCost)
	if err := data.checkSpec(spec); err != nil {
		r.check(false, "%v", err)
	}
	m0 := time.Now()
	if _, err := mgr.Migrate(rec); err != nil {
		return fail(err)
	}
	migrateT := time.Since(m0)
	r.set("migrate_s", (adviseT + migrateT).Seconds(), "s", 1)
	if e := s.db.Catalog().Table("orders"); e == nil || e.Store != catalog.Partitioned {
		r.check(false, "orders is not partitioned after the migration")
	}
	hotSQL := fmt.Sprintf(htapHotSQL, data.hotLo)
	res, err := conns[0].Query(context.Background(), hotSQL)
	if err != nil {
		return fail(err)
	}
	r.check(verifyHot(res.Rows, state) == nil, "after migration: %v", verifyHot(res.Rows, state))
	// Fold the migration into a checkpoint so the measured phase's WAL
	// and the recovery measure the steady partitioned layout.
	if err := s.db.Checkpoint(); err != nil {
		return fail(err)
	}
	settle()

	meas := data.streams(cfg.seed, 300, total/2, 2)
	if spec != nil && spec.Horizontal != nil {
		// Hot keys below the split were never updated in the observation
		// window, so the advisor left them in the column partition.
		cold := 0
		for _, st := range meas {
			for _, s := range st {
				if s.tmpl == "update" && value.Compare(s.params[2], spec.Horizontal.SplitVal) < 0 {
					cold++
				}
			}
		}
		r.set("updates_below_split", float64(cold), "count", len(meas[0])+len(meas[1]))
	}
	if cfg.trace {
		p.tr = newTracer(s.db, 8)
	}
	resetPeakRSS()
	before := s.probe()
	outs, elapsed, err := p.run(conns, meas)
	after := s.probe()
	if err != nil {
		return fail(err)
	}
	ps := summarize(meas, outs, elapsed)
	r.attempted, r.failed = ps.attempted, ps.failed
	r.check(ps.failed == 0, "%v", firstError(meas, outs))
	n, err := data.apply(state, meas, outs)
	r.check(err == nil, "%v", err)
	r.note("%d answers checked against the oracle", checked+n)
	res, err = conns[0].Query(context.Background(), hotSQL)
	closeAll(conns)
	if err != nil {
		s.stop()
		return r.fail(err)
	}
	r.check(verifyHot(res.Rows, state) == nil, "after measured phase: %v", verifyHot(res.Rows, state))

	r.set("ops_per_s", ps.opsPerS(), "1/s", ps.attempted)
	r.setQuantile("read_p50_ms", ps.reads, 0.5, "ms")
	r.setQuantile("read_p99_ms", ps.reads, 0.99, "ms")
	w50, _ := ps.writes.quantile(0.5)
	w99, _ := ps.writes.quantile(0.99)
	r.set("write_p50_ms", w50, "ms", len(ps.writes))
	r.set("write_p99_ms", w99, "ms", len(ps.writes))
	templateLatencies(r, ps)
	writeAmp(r, before, after, ps)
	r.set("observation.ops_per_s", ops.opsPerS(), "1/s", ops.attempted)
	ow50, _ := ops.writes.quantile(0.5)
	or50, _ := ops.reads.quantile(0.5)
	r.set("observation.write_p50_ms", ow50, "ms", len(ops.writes))
	r.set("observation.read_p50_ms", or50, "ms", len(ops.reads))
	r.set("advisor.advise_ms", float64(adviseT)/1e6, "ms", 1)
	r.set("migrate.layout_s", migrateT.Seconds(), "s", 1)
	r.set("advisor.predicted_speedup", ratio(rec.RowOnlyCost, rec.PartitionedCost), "ratio", 1)
	r.set("advisor.realized_speedup", ratio(ps.opsPerS(), ops.opsPerS()), "ratio", ps.attempted)
	spaceAmp(r, s.db, su.userBytes, "orders")
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)

	if cfg.trace {
		p.tr.finish(r, cfg, before, after, ps)
	}
	rt, err := crashAndRecover(cfg, s, func(db *engine.Database) error {
		rows, err := localQuery(db, hotSQL)
		if err != nil {
			return err
		}
		return verifyHot(rows, state)
	})
	if err != nil {
		return r.fail(err)
	}
	r.set("recovery_s", rt, "s", recoveryRepeats)
	return r
}
