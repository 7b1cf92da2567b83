package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// olap-star: a column-store fact table joined to a row-store dimension,
// read by two clients through four prepared templates. The column
// store, compression, executor, aggregation and join do the work; the
// WAL, transactions, SQL parsing and the advisor stay idle, and the four
// statement texts fit the server's 256-entry statement cache.
const (
	olapFactRows = 150_000
	olapDimRows  = 20_000
	olapDays     = 360
	olapProds    = 50
	olapRegions  = 12
	olapTopN     = 10
	// olapRate sizes the measured phase: statements per --seconds.
	olapRate = 550
)

var olapTexts = map[string]string{
	"range": "SELECT prod, SUM(price), SUM(qty), COUNT(*) FROM fact WHERE day BETWEEN ? AND ? GROUP BY prod",
	"join": "SELECT dim.region, SUM(fact.price), COUNT(*) FROM fact JOIN dim ON fact.cust = dim.cid " +
		"WHERE fact.day BETWEEN ? AND ? GROUP BY dim.region",
	"eq":   "SELECT COUNT(*), SUM(qty), SUM(price), MIN(price), MAX(price) FROM fact WHERE prod = ?",
	"topn": "SELECT id, day, price FROM fact WHERE day BETWEEN ? AND ? ORDER BY price DESC, id LIMIT 10",
}

// olapData is the generated star schema and the oracle built from it.
type olapData struct {
	fact, dim [][]value.Value
	factRows  int
	// Oracle partials.
	dayProd   [][]agg3     // [day][prod]
	dayRegion [][]agg3     // [day][region]
	prod      []aggMinMax  // [prod]
	dayTop    [][]topEntry // [day] best olapTopN by price desc, id asc
}

type agg3 struct {
	price float64
	qty   int64
	count int64
}

type aggMinMax struct {
	agg3
	min, max float64
}

type topEntry struct {
	id, day int64
	price   float64
}

func topLess(a, b topEntry) bool {
	if a.price != b.price {
		return a.price > b.price
	}
	return a.id < b.id
}

func olapSchemas() (*schema.Table, *schema.Table) {
	fact := schema.MustNew("fact", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "day", Type: value.Integer},
		{Name: "cust", Type: value.Integer},
		{Name: "prod", Type: value.Integer},
		{Name: "qty", Type: value.Integer},
		{Name: "price", Type: value.Double},
	}, "id")
	dim := schema.MustNew("dim", []schema.Column{
		{Name: "cid", Type: value.Integer},
		{Name: "region", Type: value.Integer},
		{Name: "name", Type: value.Varchar},
	}, "cid")
	return fact, dim
}

// genOLAP generates the tables from the seed. Days ascend with the id,
// so zone maps on day can skip blocks; prices are non-integer doubles.
func genOLAP(seed uint64, scale float64) *olapData {
	nf := max(int(olapFactRows*scale), olapDays*4)
	nd := max(int(olapDimRows*scale), olapRegions*2)
	rng := rand.New(rand.NewPCG(seed, 0x0a1))
	d := &olapData{factRows: nf}
	regionOf := make([]int, nd)
	for i := 0; i < nd; i++ {
		regionOf[i] = rng.IntN(olapRegions)
		d.dim = append(d.dim, []value.Value{
			value.NewInt(int64(i)), value.NewInt(int64(regionOf[i])), value.NewVarchar(fmt.Sprintf("cust-%05d", i)),
		})
	}
	d.dayProd = make([][]agg3, olapDays)
	d.dayRegion = make([][]agg3, olapDays)
	d.dayTop = make([][]topEntry, olapDays)
	for i := range d.dayProd {
		d.dayProd[i] = make([]agg3, olapProds)
		d.dayRegion[i] = make([]agg3, olapRegions)
	}
	d.prod = make([]aggMinMax, olapProds)
	for i := 0; i < nf; i++ {
		day := i * olapDays / nf
		cust := rng.IntN(nd)
		prod := rng.IntN(olapProds)
		qty := 1 + rng.IntN(20)
		price := rng.Float64()*200 + 0.5
		d.fact = append(d.fact, []value.Value{
			value.NewBigint(int64(i)), value.NewInt(int64(day)), value.NewInt(int64(cust)),
			value.NewInt(int64(prod)), value.NewInt(int64(qty)), value.NewDouble(price),
		})
		a := &d.dayProd[day][prod]
		a.price += price
		a.qty += int64(qty)
		a.count++
		r := &d.dayRegion[day][regionOf[cust]]
		r.price += price
		r.count++
		p := &d.prod[prod]
		if p.count == 0 || price < p.min {
			p.min = price
		}
		if p.count == 0 || price > p.max {
			p.max = price
		}
		p.price += price
		p.qty += int64(qty)
		p.count++
		d.dayTop[day] = pushTop(d.dayTop[day], topEntry{int64(i), int64(day), price})
	}
	return d
}

// pushTop keeps the best olapTopN entries, sorted.
func pushTop(top []topEntry, e topEntry) []topEntry {
	if len(top) == olapTopN && !topLess(e, top[len(top)-1]) {
		return top
	}
	i := sort.Search(len(top), func(i int) bool { return topLess(e, top[i]) })
	top = append(top, topEntry{})
	copy(top[i+1:], top[i:])
	top[i] = e
	if len(top) > olapTopN {
		top = top[:olapTopN]
	}
	return top
}

// olapMix puts the read median in the middle of the range template's
// latencies and the 99th percentile at the join's median, so neither
// quantile sits on the edge between two templates' latency clusters.
var olapMix = []share{{"range", 40}, {"topn", 30}, {"eq", 28}, {"join", 2}}

// olapStreams generates each client's statement sequence.
func olapStreams(seed, stream uint64, perClient, clients int) [][]stmt {
	out := make([][]stmt, clients)
	for c := range out {
		rng := rand.New(rand.NewPCG(seed, stream+uint64(c)))
		for _, tmpl := range mix(rng, perClient, olapMix...) {
			s := stmt{tmpl: tmpl}
			switch tmpl {
			case "range":
				lo := rng.IntN(olapDays - 14)
				s.params = ints(lo, lo+13)
			case "join":
				lo := rng.IntN(olapDays - 60)
				s.params = ints(lo, lo+59)
			case "eq":
				s.params = ints(rng.IntN(olapProds))
			default:
				lo := rng.IntN(olapDays - 7)
				s.params = ints(lo, lo+6)
			}
			out[c] = append(out[c], s)
		}
	}
	return out
}

func ints(xs ...int) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.NewInt(int64(x))
	}
	return out
}

// verify checks one answer against the oracle: integers exactly,
// doubles within 1e-9 relative.
func (d *olapData) verify(s *stmt, rows [][]value.Value) error {
	p := make([]int, len(s.params))
	for i, v := range s.params {
		p[i] = int(v.Int())
	}
	switch s.tmpl {
	case "range", "join":
		n := olapProds
		src := d.dayProd
		if s.tmpl == "join" {
			n, src = olapRegions, d.dayRegion
		}
		want := make([]agg3, n)
		for day := p[0]; day <= p[1]; day++ {
			for g := 0; g < n; g++ {
				want[g].price += src[day][g].price
				want[g].qty += src[day][g].qty
				want[g].count += src[day][g].count
			}
		}
		groups := 0
		for g := range want {
			if want[g].count > 0 {
				groups++
			}
		}
		if len(rows) != groups {
			return fmt.Errorf("%s(%v): %d groups, want %d", s.tmpl, p, len(rows), groups)
		}
		for _, row := range rows {
			g := int(row[0].Int())
			if g < 0 || g >= n || want[g].count == 0 {
				return fmt.Errorf("%s(%v): unexpected group %d", s.tmpl, p, g)
			}
			w := want[g]
			cnt := row[len(row)-1].Float()
			if !relClose(row[1].Float(), w.price) || cnt != float64(w.count) ||
				(s.tmpl == "range" && row[2].Float() != float64(w.qty)) {
				return fmt.Errorf("%s(%v) group %d: got %v, want price %v qty %d count %d", s.tmpl, p, g, row, w.price, w.qty, w.count)
			}
		}
	case "eq":
		w := d.prod[p[0]]
		if len(rows) != 1 {
			return fmt.Errorf("eq(%d): %d rows", p[0], len(rows))
		}
		r := rows[0]
		if r[0].Float() != float64(w.count) || r[1].Float() != float64(w.qty) || !relClose(r[2].Float(), w.price) ||
			r[3].Float() != w.min || r[4].Float() != w.max {
			return fmt.Errorf("eq(%d): got %v, want count %d qty %d price %v min %v max %v", p[0], r, w.count, w.qty, w.price, w.min, w.max)
		}
	case "topn":
		var top []topEntry
		for day := p[0]; day <= p[1]; day++ {
			for _, e := range d.dayTop[day] {
				top = pushTop(top, e)
			}
		}
		if len(rows) != len(top) {
			return fmt.Errorf("topn(%v): %d rows, want %d", p, len(rows), len(top))
		}
		for i, row := range rows {
			if row[0].Int() != top[i].id || row[1].Int() != top[i].day || row[2].Double() != top[i].price {
				return fmt.Errorf("topn(%v) row %d: got %v, want %+v", p, i, row, top[i])
			}
		}
	default:
		return fmt.Errorf("unknown template %q", s.tmpl)
	}
	return nil
}

// verifyAll checks every answer of a phase and returns how many were
// checked.
func verifyAnswers(r *report, streams [][]stmt, outs [][]outcome, check func(*stmt, [][]value.Value) error) int {
	checked := 0
	for ci := range streams {
		for i := range streams[ci] {
			o := &outs[ci][i]
			if o.err != nil || o.res == nil {
				continue
			}
			if err := check(&streams[ci][i], o.res.Rows); err != nil {
				r.check(false, "%v", err)
				return checked
			}
			checked++
		}
	}
	return checked
}

func runOLAP(cfg config) *report {
	r := newReport("olap-star")
	hostNote(r, cfg)
	data := genOLAP(cfg.seed, cfg.scale)
	factSch, dimSch := olapSchemas()
	var userBytes int64
	for _, row := range data.fact {
		userBytes += rowBytes(row)
	}
	for _, row := range data.dim {
		userBytes += rowBytes(row)
	}
	su, err := setup(cfg, func(db *engine.Database) (int64, time.Duration, error) {
		if err := db.CreateTable(factSch, catalog.ColumnStore); err != nil {
			return 0, 0, err
		}
		if err := db.CreateTable(dimSch, catalog.RowStore); err != nil {
			return 0, 0, err
		}
		if err := loadBatches(db, "fact", data.fact); err != nil {
			return 0, 0, err
		}
		if err := loadBatches(db, "dim", data.dim); err != nil {
			return 0, 0, err
		}
		c0 := time.Now()
		if err := db.Compact("fact"); err != nil {
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
	total := max(int(float64(olapRate*cfg.seconds)*cfg.scale), 40)
	p := &phase{texts: olapTexts, rounds: phaseRounds}
	if err := warmUp(p, conns, olapStreams(cfg.seed, 100, max(total/20, 10), 2)); err != nil {
		closeAll(conns)
		s.stop()
		return r.fail(err)
	}
	streams := olapStreams(cfg.seed, 200, total/2, 2)
	if cfg.trace {
		p.tr = newTracer(s.db, 8)
	}
	resetPeakRSS()
	before := s.probe()
	outs, elapsed, err := p.run(conns, streams)
	after := s.probe()
	closeAll(conns)
	if err != nil {
		s.stop()
		return r.fail(err)
	}
	ps := summarize(streams, outs, elapsed)
	r.attempted, r.failed = ps.attempted, ps.failed
	r.check(ps.failed == 0, "%v", firstError(streams, outs))
	n := verifyAnswers(r, streams, outs, data.verify)
	r.note("%d answers checked against the oracle", n)

	r.set("ops_per_s", ps.opsPerS(), "1/s", ps.attempted)
	r.setQuantile("read_p50_ms", ps.reads, 0.5, "ms")
	r.setQuantile("read_p99_ms", ps.reads, 0.99, "ms")
	templateLatencies(r, ps)
	spaceAmp(r, s.db, su.userBytes, "fact", "dim")
	r.set("peak_rss_mb", peakRSSMB(), "MB", 1)

	if cfg.trace {
		p.tr.finish(r, cfg, before, after, ps)
	}
	rec, err := crashAndRecover(cfg, s, func(db *engine.Database) error {
		for _, t := range []struct {
			name string
			rows int
		}{{"fact", data.factRows}, {"dim", len(data.dim)}} {
			n, err := db.Rows(t.name)
			if err != nil {
				return err
			}
			if n != t.rows {
				return fmt.Errorf("%s has %d rows, want %d", t.name, n, t.rows)
			}
		}
		for prod := 0; prod < olapProds; prod++ {
			rows, err := localQuery(db, strings.Replace(olapTexts["eq"], "?", strconv.Itoa(prod), 1))
			if err != nil {
				return err
			}
			if err := data.verify(&stmt{tmpl: "eq", params: ints(prod)}, rows); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return r.fail(err)
	}
	r.set("recovery_s", rec, "s", recoveryRepeats)
	return r
}
