package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so per-run figures and cross-run summaries agree.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := (n + 1) * i
		j := m / 4
		delta := m - 4*j
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return safeDiv(sum, float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durationsMS converts nanosecond samples to milliseconds.
func durationsMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// safeDiv returns a/b, or 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// provenance identifies the code, the machine and the inputs of a run.
type provenance struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Trace        bool      `json:"trace"`
	Seconds      float64   `json:"seconds"`
	Runs         int       `json:"runs"`
	SetupReps    int       `json:"setup_reps"`
	Revision     string    `json:"revision"`
	SourceDigest string    `json:"source_digest"`
	GoVersion    string    `json:"go_version"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	NumCPU       int       `json:"nproc"`
	CPUModel     string    `json:"cpu_model"`
	OS           string    `json:"os"`
	Arch         string    `json:"arch"`
	Started      time.Time `json:"started"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Trace:        cfg.trace,
		Seconds:      cfg.seconds,
		Runs:         1,
		Revision:     revision(),
		SourceDigest: sourceDigest(cfg.root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		Started:      time.Now().UTC(),
	}
}

// revision is the VCS revision the binary was built from. The build
// stamps it when the source is a git checkout (with a "+dirty" suffix for
// uncommitted changes); otherwise it is "unknown" and the source digest
// identifies the code.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (build
// outputs excluded), so runs of identical code carry identical digests
// whether or not the checkout is a git repository.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the processor name from /proc/cpuinfo on Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
