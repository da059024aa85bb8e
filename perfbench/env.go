package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp records where a result came from. Results are comparable only
// between equal stamps; compareDirs says so when they differ.
type envStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the checkout's git commit when it has a .git directory;
	// Source hashes the program's Go sources and go.mod, so a checkout
	// without git history is still identified.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func (e envStamp) String() string {
	data, _ := json.Marshal(e) // plain strings and ints always marshal
	return string(data)
}

func stamp() envStamp {
	return envStamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit("."),
		Source:     sourceHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD without running git: a detached hash, or the hash
// its ref points to (loose or packed).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if h, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(h))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return h
		}
	}
	return "unknown"
}

// sourceHash hashes go.mod and every .go file of the program, skipping the
// benchmark's own directory and build outputs.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || p == filepath.Join(root, "go.mod")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f) // a short read changes the hash, which is what we want
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareDirs prints, per workload and metric, the medians of two sets of
// saved results and their relative change. When the environment stamps
// differ (between or within the sets) it says so first, naming the fields.
func compareDirs(w io.Writer, a, b string) error {
	sa, err := loadDir(a)
	if err != nil {
		return err
	}
	sb, err := loadDir(b)
	if err != nil {
		return err
	}
	if diff := stampDiff(append(append([]saved(nil), sa...), sb...)); diff != "" {
		fmt.Fprintf(w, "ENVIRONMENT DIFFERS: %s — the comparison below crosses environments\n", diff)
	}
	for _, set := range []struct {
		name string
		s    []saved
	}{{"A", sa}, {"B", sb}} {
		ids := map[string]bool{}
		for _, r := range set.s {
			ids["commit "+r.Env.Commit+" source "+r.Env.Source] = true
		}
		for id := range ids {
			fmt.Fprintf(w, "%s: %s\n", set.name, id)
		}
	}
	type key struct{ workload, metric string }
	va, vb := map[key][]float64{}, map[key][]float64{}
	units := map[key]string{}
	for _, set := range []struct {
		s []saved
		v map[key][]float64
	}{{sa, va}, {sb, vb}} {
		for _, r := range set.s {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				set.v[k] = append(set.v[k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-30s %12s %12s %9s  n\n", "workload", "metric", "A median", "B median", "B/A-1")
	for _, k := range keys {
		ma, mb := median(va[k]), median(vb[k])
		change := "-"
		if ma != 0 && len(va[k]) > 0 && len(vb[k]) > 0 {
			change = fmt.Sprintf("%+.3f", mb/ma-1)
		}
		fmt.Fprintf(w, "%-14s %-30s %12.6g %12.6g %9s  %d/%d %s\n",
			k.workload, k.metric, ma, mb, change, len(va[k]), len(vb[k]), units[k])
	}
	return nil
}

func loadDir(dir string) ([]saved, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results in %s", dir)
	}
	var out []saved
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s saved
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if s.Result == nil {
			return nil, fmt.Errorf("%s: no result", p)
		}
		out = append(out, s)
	}
	return out, nil
}

// stampDiff names the environment fields that are not the same across
// results ("" when all agree). Commit and source differ by design between
// a parent and a change; compareDirs prints them per set instead.
func stampDiff(rs []saved) string {
	var diffs []string
	fields := []struct {
		name string
		get  func(envStamp) string
	}{
		{"cpu", func(e envStamp) string { return e.CPU }},
		{"nproc", func(e envStamp) string { return fmt.Sprint(e.NumCPU) }},
		{"gomaxprocs", func(e envStamp) string { return fmt.Sprint(e.GOMAXPROCS) }},
		{"go", func(e envStamp) string { return e.Go }},
	}
	for _, f := range fields {
		seen := map[string]bool{}
		for _, r := range rs {
			seen[f.get(r.Env)] = true
		}
		if len(seen) > 1 {
			vals := make([]string, 0, len(seen))
			for v := range seen {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			diffs = append(diffs, f.name+" "+strings.Join(vals, " vs "))
		}
	}
	return strings.Join(diffs, "; ")
}
