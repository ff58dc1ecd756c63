// Command perfbench is the repository's serving benchmark. It hosts a
// netq server over a dynq engine on loopback inside its own process,
// drives one workload through netq clients for a fixed time, checks the
// answers against an exhaustive reference outside the timed phase, and
// prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call it makes into a layer, replays the
// same requests one layer down, and reports the per-layer metrics instead.
// README.md lists every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; data, results and traces go under .bench_build
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: pdq-flythrough, npdq-large or ingest-live")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the population, the sessions and the update stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; outputs go under <root>/.bench_build/perfbench")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive, got %g", cfg.seconds))
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want pdq-flythrough, npdq-large or ingest-live)", cfg.workload))
	}
	out := filepath.Join(cfg.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fail(err)
	}
	rep, err := runWorkload(cfg, w, out)
	if err != nil {
		fail(err)
	}
	if err := rep.write(cfg, out); err != nil {
		fail(err)
	}
	rep.printTable(os.Stderr)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report is everything one invocation measured: the contract metrics plus
// the samples behind them and the provenance stamp.
type report struct {
	Provenance provenance       `json:"provenance"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Problems   []string         `json:"problems,omitempty"`
	Metrics    []reportedMetric `json:"metrics"`
}

// reportedMetric is one metric with the distribution of the samples it
// was computed from (setups, frames, batches or replayed requests).
type reportedMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Targets string  `json:"targets,omitempty"` // end-to-end metric a layer metric should move
	Info    bool    `json:"info,omitempty"`    // reported here only, not in the result line
}

func (r *report) add(name, unit string, value float64, samples []float64, targets string) {
	m := reportedMetric{Name: name, Value: value, Unit: unit, Samples: len(samples), Targets: targets}
	if len(samples) > 0 {
		m.Q1, m.Median, m.Q3 = quartiles(samples)
	}
	r.Metrics = append(r.Metrics, m)
}

// info adds a metric that goes to the report and the table but not to the
// result line.
func (r *report) info(name, unit string, value float64, samples []float64) {
	r.add(name, unit, value, samples, "")
	r.Metrics[len(r.Metrics)-1].Info = true
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) result() result {
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, m := range r.Metrics {
		if !m.Info {
			res.Metrics[m.Name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return res
}

// write stores the full report under results/ so repeated runs can be
// summarized (summarize.py) with their provenance.
func (r *report) write(cfg config, out string) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-%s-seed%d-%d.json", cfg.workload, mode, cfg.seed, time.Now().UnixNano())
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

func (r *report) printTable(f *os.File) {
	p := r.Provenance
	fmt.Fprintf(f, "perfbench %s seed=%d trace=%v rev=%s src=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		p.Workload, p.Seed, p.Trace, p.Revision, p.SourceDigest, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	for _, m := range r.Metrics {
		line := fmt.Sprintf("  %-32s %14.6g %-6s n=%-7d median=%.6g q1=%.6g q3=%.6g",
			m.Name, m.Value, m.Unit, m.Samples, m.Median, m.Q1, m.Q3)
		if m.Targets != "" {
			line += "  -> " + m.Targets
		}
		if m.Info {
			line += "  (report only)"
		}
		fmt.Fprintln(f, line)
	}
	for _, pr := range r.Problems {
		fmt.Fprintln(f, "  PROBLEM:", pr)
	}
	fmt.Fprintf(f, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
