package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hybridstore/internal/client"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/metrics"
	"hybridstore/internal/schema"
	"hybridstore/internal/server"
	"hybridstore/internal/value"
)

// setupRepeats is how often a run builds its served database from an
// empty data directory; setup_s is the median. The last build serves
// the measured phases.
const setupRepeats = 3

// recoveryRepeats is how often a run reopens the crashed data directory;
// recovery_s is the median. Recovery replays the whole measured phase's
// log, seconds per reopen, so one reopen keeps the run short.
const recoveryRepeats = 1

// served is one loaded database behind a loopback server.
type served struct {
	dir  string
	db   *engine.Database
	srv  *server.Server
	addr string
}

// loader fills a freshly opened durable database and returns the raw
// user bytes loaded and the time spent in db.Compact.
type loader func(db *engine.Database) (userBytes int64, compact time.Duration, err error)

// setupResult is the outcome of the repeated set-up.
type setupResult struct {
	srv       *served
	setupS    float64
	compactMS float64
	userBytes int64
}

// setup builds the database setupRepeats times, each time from opening
// an empty data directory to serving the loaded, checkpointed data, and
// keeps the last one running.
func setup(cfg config, load loader) (*setupResult, error) {
	var times, compacts []float64
	var res setupResult
	for i := 0; i < setupRepeats; i++ {
		settle()
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("db%d", i))
		start := time.Now()
		db, err := engine.Open(dir)
		if err != nil {
			return nil, err
		}
		ub, compact, err := load(db)
		if err == nil {
			err = db.Checkpoint()
		}
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		srv, err := server.Serve(db, "127.0.0.1:0", server.Config{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			db.Close()
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		compacts = append(compacts, float64(compact)/1e6)
		s := &served{dir: dir, db: db, srv: srv, addr: srv.Addr().String()}
		if i < setupRepeats-1 {
			s.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		res = setupResult{srv: s, userBytes: ub}
	}
	res.setupS = median(times)
	res.compactMS = median(compacts)
	return &res, nil
}

// stop shuts the server down; it closes (and checkpoints) the database.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// crashAndRecover simulates a process kill of the served database,
// then reopens copies of the crashed data directory recoveryRepeats
// times, running verify against each reopened database. It returns the
// median time of engine.Open.
func crashAndRecover(cfg config, s *served, verify func(db *engine.Database) error) (float64, error) {
	if err := s.db.Crash(); err != nil {
		return 0, fmt.Errorf("crash: %w", err)
	}
	image := filepath.Join(cfg.dataDir, "crashed")
	if err := copyDir(s.dir, image); err != nil {
		return 0, err
	}
	// Shutdown after Crash fails its final checkpoint by design: the
	// log is closed. The image was taken before it.
	_ = s.stop()
	var times []float64
	for i := 0; i < recoveryRepeats; i++ {
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("recover%d", i))
		if err := copyDir(image, dir); err != nil {
			return 0, err
		}
		settle()
		start := time.Now()
		db, err := engine.Open(dir)
		if err != nil {
			return 0, fmt.Errorf("recovery open: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		verr := verify(db)
		cerr := db.Close()
		if verr != nil {
			return 0, fmt.Errorf("after recovery: %w", verr)
		}
		if cerr != nil {
			return 0, cerr
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// settle collects garbage and returns freed memory to the OS so one
// phase's leftovers do not land in the next one's timings.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dial opens n client connections to the server.
func dial(s *served, n int) ([]*client.Conn, error) {
	conns := make([]*client.Conn, n)
	for i := range conns {
		c, err := client.Dial(s.addr, client.Options{Name: fmt.Sprintf("client%d", i)})
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

func closeAll(conns []*client.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// parallel runs fn once per client index on its own goroutine and
// waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// counters is a reading of the process-wide metrics registry.
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	for _, r := range metrics.Default().Rows() {
		c[r.Name] = r.Value
	}
	return c
}

// delta returns the change of every counter and histogram count/sum
// between two readings, scoping the process-global registry to one
// phase. Histogram quantile rows are dropped: they snap to bucket edges
// and cannot be differenced.
func (c counters) delta(before counters) counters {
	d := counters{}
	for k, v := range c {
		if strings.HasSuffix(k, "_p50") || strings.HasSuffix(k, "_p99") {
			continue
		}
		d[k] = v - before[k]
	}
	return d
}

// mean returns a histogram's exact mean over the phase from its sum and
// count deltas (in the histogram's exposition unit).
func (c counters) mean(hist string) float64 {
	return ratio(c[hist+"_sum"], c[hist+"_count"])
}

// procStatus reads one numeric field (in kB) of /proc/self/status.
func procStatus(field string) (int64, error) {
	return procField("/proc/self/status", field+":")
}

// ioWriteBytes reads the bytes this process caused to be sent to the
// storage layer.
func ioWriteBytes() (int64, error) {
	return procField("/proc/self/io", "write_bytes:")
}

func procField(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// peakRSSMB returns the process's resident high-water mark in MB.
func peakRSSMB() float64 {
	kb, err := procStatus("VmHWM")
	if err != nil {
		return 0
	}
	return float64(kb) / 1024
}

// resetPeakRSS restarts the resident high-water mark, so peak_rss_mb
// covers the measured phase rather than the set-up builds. Where the
// kernel refuses, the mark stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// hostNote records the facts a reader needs to compare runs.
func hostNote(r *report, cfg config) {
	r.note("nproc=%d GOMAXPROCS=%d fs=%s flush=fsync group commit (engine default) clients<=2 closed-loop",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), fsName(cfg.dataDir))
}

// rowBytes is the raw user size of a row: 8 bytes per number or date,
// the string length for text.
func rowBytes(row []value.Value) int64 {
	var n int64
	for _, v := range row {
		if v.Type() == value.Varchar {
			n += int64(len(v.Varchar()))
		} else {
			n += 8
		}
	}
	return n
}

// resolver adapts the live catalog for sql.Parse and Prepared.Bind.
func resolver(db *engine.Database) func(string) *schema.Table {
	return func(name string) *schema.Table {
		if e := db.Catalog().Table(name); e != nil {
			return e.Schema
		}
		return nil
	}
}

// loadBatches appends rows to a table through the bulk-ingest path in
// batches of the size a COPY stream sends.
func loadBatches(db *engine.Database, table string, rows [][]value.Value) error {
	const batch = 4096
	ctx := context.Background()
	for lo := 0; lo < len(rows); lo += batch {
		hi := min(lo+batch, len(rows))
		if _, err := db.CopyRows(ctx, table, rows[lo:hi]); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// spaceAmp is the summed engine.MemoryBytes of the tables over the raw
// user bytes they hold, plus each table's bytes per row.
func spaceAmp(r *report, db *engine.Database, userBytes int64, tables ...string) {
	var mem, rows int64
	for _, t := range tables {
		b, err := db.MemoryBytes(t)
		if err != nil {
			r.fail(err)
			return
		}
		n, err := db.Rows(t)
		if err != nil {
			r.fail(err)
			return
		}
		mem += int64(b)
		rows += int64(n)
		r.set("engine.bytes_per_row."+t, ratio(float64(b), float64(n)), "B", n)
	}
	r.set("space_amp", ratio(float64(mem), float64(userBytes)), "ratio", len(tables))
	r.set("engine.bytes_per_row", ratio(float64(mem), float64(rows)), "B", int(rows))
}

// probe is a reading of everything the measured phase is scoped by:
// the process counters, the server's pool and caches, the process's
// storage writes and the WAL file's size.
type probe struct {
	c                        counters
	pool                     exec.PoolStats
	hits, miss, phits, pmiss int64
	io, wal                  int64
}

func (s *served) probe() probe {
	var p probe
	p.c = readCounters()
	p.pool = s.db.Pool().Stats()
	p.hits, p.miss = s.srv.StmtCacheStats()
	p.phits, p.pmiss, _ = s.srv.PlanCacheStats()
	p.io, _ = ioWriteBytes()
	p.wal = fileSize(filepath.Join(s.dir, "wal.log"))
	return p
}

// phaseLayers reports the per-layer metrics derived from two probes
// around the measured phase.
func phaseLayers(r *report, b, a probe, ps *phaseStats) {
	lookups := a.hits - b.hits + a.miss - b.miss
	if lookups > 0 {
		r.set("server.stmt_cache_hit_ratio", ratio(float64(a.hits-b.hits), float64(lookups)), "ratio", int(lookups))
	}
	if plans := a.phits - b.phits + a.pmiss - b.pmiss; plans > 0 {
		r.set("plan.cache_hit_ratio", ratio(float64(a.phits-b.phits), float64(plans)), "ratio", int(plans))
	}
	stmts := float64(ps.attempted)
	r.set("exec.tasks_per_query", ratio(float64(a.pool.Done-b.pool.Done), stmts), "count", ps.attempted)
	r.set("exec.peak_queued", float64(a.pool.PeakQueued), "count", 1)
	if ps.writeBytes > 0 {
		r.set("wal.bytes_per_user_byte", ratio(float64(a.wal-b.wal), float64(ps.writeBytes)), "ratio", int(ps.writeBytes))
	}
	r.setQuantile("server.overhead_p50_ms", ps.overhead, 0.5, "ms")
	r.set("trace.ops_per_s", ps.opsPerS(), "1/s", ps.attempted)
	layerCounters(r, a.c.delta(b.c), stmts)
}

// writeAmp reports the process's storage writes over the phase per user
// byte written.
func writeAmp(r *report, b, a probe, ps *phaseStats) {
	r.set("write_amp", ratio(float64(a.io-b.io), float64(ps.writeBytes)), "ratio", int(ps.writeBytes))
}

// fileSize returns a file's size, 0 when it cannot be read.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
