// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each run serves one workload from a durable engine over
// loopback TCP through internal/server, drives it with at most two
// closed-loop internal/client connections from the same process, checks
// every answer against an oracle built from the generated data, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced replay (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -data DIR --workload olap-star --seed 1 --seconds 10 --trace 0
//	perfbench -data DIR --workload all --seed 1 --seconds 10
//
// Every phase is sized by statements or rows, never by wall time:
// --seconds scales the statement and row counts by a per-workload rate,
// so a measured phase takes roughly that long on a 2-core host. With --workload all
// the command re-executes itself once per workload and trace mode, so
// each measurement gets a fresh process, and prints the tracing
// overhead beside each workload's numbers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics every workload reports with --trace 0.
// Metrics that apply to one workload only (rows_per_s, the write
// latencies, write_amp, migrate_s), error_rate, and recovery_s, whose
// single reopen per run spreads more than a gate allows on a shared
// host, are printed in the human-readable report, not in the JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"space_amp", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the per-layer metrics every workload measures, the
// JSON line of --trace 1. The layers only some workloads use (SQL
// parsing, DML, COPY batches, merges, transactions, the WAL, the
// advisor loop) and the per-template and per-table breakdowns are
// printed in the traced run's report lines instead, so no metric in the
// JSON line is a placeholder for an idle layer.
var perLayer = []metricDef{
	{"server.overhead_p50_ms", "ms", "lower"},
	{"wire.ping_p50_us", "us", "lower"},
	{"plan.cache_hit_ratio", "ratio", "higher"},
	{"sql.bind_p50_us", "us", "lower"},
	{"plan.build_p50_us", "us", "lower"},
	{"engine.read_p50_ms", "ms", "lower"},
	{"exec.tasks_per_query", "count", "lower"},
	{"exec.peak_queued", "count", "lower"},
	{"colstore.zone_skip_ratio", "ratio", "higher"},
	{"colstore.blocks_decoded_per_query", "count", "lower"},
	{"colstore.compact_ms", "ms", "lower"},
	{"engine.bytes_per_row", "B", "lower"},
	{"trace.ops_per_s", "1/s", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// workload is one benchmark workload; BENCHMARK.json and README.md say
// why each was chosen.
type workload struct {
	name string
	run  func(cfg config) *report
}

var workloads = []workload{
	{"olap-star", runOLAP},
	{"bulk-ingest", runIngest},
	{"htap-advised", runHTAP},
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dataDir  string
	// scale multiplies every data and statement count; the self-test
	// runs at a tiny scale.
	scale float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: olap-star, bulk-ingest, htap-advised or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated data and statement streams")
	flag.IntVar(&cfg.seconds, "seconds", 10, "approximate measured-phase length; sizes the statement and row counts")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dataDir, "data", ".bench_data", "directory for data directories and span files")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = 1
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1")
		os.Exit(2)
	}
	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	abs, err := filepath.Abs(cfg.dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.dataDir = filepath.Join(abs, fmt.Sprintf("%s-%d-%d-%d", cfg.workload, cfg.seed, *trace, os.Getpid()))
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep := w.run(cfg)
	rmErr := os.RemoveAll(cfg.dataDir)
	rep.print(os.Stdout, cfg)
	if rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove data directory:", rmErr)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload untraced and traced, each in a fresh
// process, and prints each workload's report with the tracing overhead.
func runAll(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	status := 0
	var all []map[string]any
	for _, w := range workloads {
		var ops [2]float64
		for tr := 0; tr < 2; tr++ {
			args := []string{"-data", cfg.dataDir,
				"--workload", w.name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(tr)}
			out, err := runChild(self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s trace=%d: %v\n", w.name, tr, err)
				status = 1
			}
			if out == nil {
				continue
			}
			if v, ok := out["metrics"].(map[string]any)["ops_per_s"]; ok && tr == 0 {
				ops[0] = v.(map[string]any)["value"].(float64)
			}
			if v, ok := out["metrics"].(map[string]any)["trace.ops_per_s"]; ok && tr == 1 {
				ops[1] = v.(map[string]any)["value"].(float64)
			}
			out["workload"], out["trace"] = w.name, tr
			all = append(all, out)
		}
		if ops[0] > 0 && ops[1] > 0 {
			fmt.Printf("%-13s tracing overhead on ops_per_s: %.1f%% (untraced %.1f, traced %.1f)\n",
				w.name, 100*(1-ops[1]/ops[0]), ops[0], ops[1])
		}
	}
	enc, _ := json.Marshal(all) // maps of JSON-decoded values always marshal
	fmt.Println(string(enc))
	return status
}

// runChild runs one workload process, echoes its report lines and
// returns its decoded last line.
func runChild(self string, args []string) (map[string]any, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		fmt.Println(line)
	}
	waitErr := cmd.Wait()
	if last == "" {
		return nil, fmt.Errorf("no result line (%v)", waitErr)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, err
	}
	return out, waitErr
}
