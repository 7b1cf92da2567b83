package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/value"
)

// TestWorkloadsTinyScale runs every workload untraced and traced at a
// tiny scale and checks the result line: correct, no failures, and
// exactly the promised metrics, each with its unit.
func TestWorkloadsTinyScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			dir := filepath.Join(t.TempDir(), "run")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			cfg := config{workload: w.name, seed: 1, seconds: 1, trace: trace, dataDir: dir, scale: 0.02}
			rep := w.run(cfg)
			var out bytes.Buffer
			rep.print(&out, cfg)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

func doubles(xs ...float64) []value.Value {
	out := make([]value.Value, len(xs))
	for i, x := range xs {
		out[i] = value.NewDouble(x)
	}
	return out
}

// TestOLAPChecksRejectWrongExpectations feeds the olap-star oracle the
// answers it expects, then deliberately wrong expected values.
func TestOLAPChecksRejectWrongExpectations(t *testing.T) {
	d := genOLAP(1, 0.02)

	eq := &stmt{tmpl: "eq", params: ints(3)}
	w := d.prod[3]
	rows := [][]value.Value{doubles(float64(w.count), float64(w.qty), w.price, w.min, w.max)}
	if err := d.verify(eq, rows); err != nil {
		t.Fatalf("eq: %v", err)
	}
	d.prod[3].price = w.price * (1 + 1e-12)
	if err := d.verify(eq, rows); err != nil {
		t.Errorf("eq within 1e-9 relative: %v", err)
	}
	for name, wrong := range map[string]func(*aggMinMax){
		"count": func(a *aggMinMax) { a.count++ },
		"qty":   func(a *aggMinMax) { a.qty++ },
		"price": func(a *aggMinMax) { a.price *= 1 + 1e-7 },
		"max":   func(a *aggMinMax) { a.max += 1e-9 },
	} {
		d.prod[3] = w
		wrong(&d.prod[3])
		if d.verify(eq, rows) == nil {
			t.Errorf("eq accepted a wrong expected %s", name)
		}
	}
	d.prod[3] = w

	rng := &stmt{tmpl: "range", params: ints(10, 23)}
	want := make([]agg3, olapProds)
	for day := 10; day <= 23; day++ {
		for g := range want {
			want[g].price += d.dayProd[day][g].price
			want[g].qty += d.dayProd[day][g].qty
			want[g].count += d.dayProd[day][g].count
		}
	}
	rows = nil
	for g, a := range want {
		if a.count > 0 {
			rows = append(rows, append(ints(g), doubles(a.price, float64(a.qty), float64(a.count))...))
		}
	}
	if err := d.verify(rng, rows); err != nil {
		t.Fatalf("range: %v", err)
	}
	d.dayProd[12][rows[0][0].Int()].qty++
	if d.verify(rng, rows) == nil {
		t.Error("range accepted a wrong expected qty")
	}

	top := &stmt{tmpl: "topn", params: ints(40, 46)}
	var best []topEntry
	for day := 40; day <= 46; day++ {
		for _, e := range d.dayTop[day] {
			best = pushTop(best, e)
		}
	}
	rows = nil
	for _, e := range best {
		rows = append(rows, []value.Value{value.NewBigint(e.id), value.NewInt(e.day), value.NewDouble(e.price)})
	}
	if err := d.verify(top, rows); err != nil {
		t.Fatalf("topn: %v", err)
	}
	for day := 40; day <= 46; day++ {
		for i := range d.dayTop[day] {
			d.dayTop[day][i].id++
		}
	}
	if d.verify(top, rows) == nil {
		t.Error("topn accepted wrong expected ids")
	}
}

// TestIngestChecksRejectWrongExpectations covers the exact-id
// differential and the reader's visibility bounds.
func TestIngestChecksRejectWrongExpectations(t *testing.T) {
	const n = 1000
	rows := [][]value.Value{{value.NewBigint(n), value.NewDouble(n * (n - 1) / 2), value.NewBigint(0), value.NewBigint(n - 1)}}
	if err := idDifferential(rows, n); err != nil {
		t.Fatalf("differential: %v", err)
	}
	if idDifferential(rows, n+1) == nil || idDifferential(rows, n-1) == nil {
		t.Error("differential accepted a wrong expected row count")
	}
	if err := checkVisible(50, 40, 45, 60); err != nil {
		t.Fatalf("visible: %v", err)
	}
	for _, c := range [][4]int64{{50, 51, 45, 60}, {50, 40, 51, 60}, {50, 40, 45, 49}} {
		if checkVisible(c[0], c[1], c[2], c[3]) == nil {
			t.Errorf("reader check accepted %v", c)
		}
	}
}

// TestHTAPChecksRejectWrongExpectations covers the recommendation
// check, the per-client read-your-writes check, the analytic oracle and
// the hot-range verification.
func TestHTAPChecksRejectWrongExpectations(t *testing.T) {
	d := genHTAP(1, 0.02)
	good := &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
		SplitCol: 0, SplitVal: value.NewBigint(int64(d.hotLo + 3)), HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore}}
	if err := d.checkSpec(good); err != nil {
		t.Fatalf("spec: %v", err)
	}
	swapped := *good.Horizontal
	swapped.HotStore, swapped.ColdStore = catalog.ColumnStore, catalog.RowStore
	early := *good.Horizontal
	early.SplitVal = value.NewBigint(int64(d.hotLo - 1))
	for name, spec := range map[string]*catalog.PartitionSpec{
		"none":     nil,
		"vertical": {Horizontal: good.Horizontal, Vertical: &catalog.VerticalSpec{RowCols: []int{0, 4}, ColCols: []int{0, 1, 2, 3, 5}}},
		"swapped":  {Horizontal: &swapped},
		"early":    {Horizontal: &early},
	} {
		if d.checkSpec(spec) == nil {
			t.Errorf("spec check accepted %s", name)
		}
	}

	key := int64(d.hotLo + 1)
	upd := stmt{tmpl: "update", write: true, params: []value.Value{value.NewInt(7), value.NewDouble(1.25), value.NewBigint(key)}}
	read := stmt{tmpl: "point", params: []value.Value{value.NewBigint(key)}}
	row := d.rows[key]
	seen := []value.Value{row[1], row[3], value.NewInt(7), value.NewDouble(1.25)}
	outs := [][]outcome{{{}, {res: resultOf(seen)}}}
	if _, err := d.apply(d.initialState(), [][]stmt{{upd, read}}, outs); err != nil {
		t.Fatalf("apply: %v", err)
	}
	wrong := upd
	wrong.params = []value.Value{value.NewInt(8), value.NewDouble(1.25), value.NewBigint(key)}
	if _, err := d.apply(d.initialState(), [][]stmt{{wrong, read}}, outs); err == nil {
		t.Error("point read check accepted a wrong expected qty")
	}

	st := d.initialState()
	var hot [][]value.Value
	for _, r := range d.rows[d.hotLo:] {
		hot = append(hot, []value.Value{r[0], r[4], r[5]})
	}
	if err := verifyHot(hot, st); err != nil {
		t.Fatalf("hot: %v", err)
	}
	st[key] = [2]value.Value{value.NewInt(7), value.NewDouble(1.25)}
	if verifyHot(hot, st) == nil {
		t.Error("hot-range check accepted a wrong expected row")
	}

	adhoc := &stmt{tmpl: "adhoc", params: ints(5, 24)}
	want := make([]agg3, htapStatuses)
	for day := 5; day <= 24; day++ {
		for g := range want {
			want[g].price += d.dayAgg[day][g].price
			want[g].qty += d.dayAgg[day][g].qty
			want[g].count += d.dayAgg[day][g].count
		}
	}
	var rows [][]value.Value
	for g, a := range want {
		if a.count > 0 {
			rows = append(rows, append(ints(g), doubles(float64(a.count), a.price, float64(a.qty))...))
		}
	}
	if err := d.verifyAdhoc(adhoc, rows); err != nil {
		t.Fatalf("adhoc: %v", err)
	}
	d.dayAgg[7][rows[0][0].Int()].price += 0.01
	if d.verifyAdhoc(adhoc, rows) == nil {
		t.Error("adhoc check accepted a wrong expected sum")
	}
}

// TestBenchmarkJSONMatchesProgram checks BENCHMARK.json names the
// metrics and workloads the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars)", i, w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.metricDef != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, perLayer[i])
		}
	}
}

func resultOf(row []value.Value) *client.Result {
	return &client.Result{Rows: [][]value.Value{row}}
}
