package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostSample is a point-in-time reading of host CPU contention.
type hostSample struct {
	at time.Time
	// cpu holds /proc/stat's aggregate cpu line fields, in jiffies.
	cpu []int64
	// pressureUS is /proc/pressure/cpu's "some" total stall, microseconds.
	pressureUS int64
	ok         bool
}

func sampleHost() hostSample {
	s := hostSample{at: time.Now()}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := bytes.Cut(data, []byte("\n"))
		f := strings.Fields(string(line))
		if len(f) > 8 && f[0] == "cpu" {
			for _, x := range f[1:] {
				v, _ := strconv.ParseInt(x, 10, 64)
				s.cpu = append(s.cpu, v)
			}
			s.ok = true
		}
	}
	if data, err := os.ReadFile("/proc/pressure/cpu"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "some ") {
				continue
			}
			for _, kv := range strings.Fields(line) {
				if v, ok := strings.CutPrefix(kv, "total="); ok {
					s.pressureUS, _ = strconv.ParseInt(v, 10, 64)
				}
			}
		}
	}
	return s
}

// contention returns, between two samples, the host's steal time as a
// percentage of all CPU time and the share of wall time in which some
// runnable task waited for a CPU.
func contention(a, b hostSample) (stealPct, pressurePct float64) {
	if a.ok && b.ok && len(a.cpu) == len(b.cpu) && len(a.cpu) > 7 {
		var total int64
		for i := range a.cpu {
			total += b.cpu[i] - a.cpu[i]
		}
		if total > 0 {
			stealPct = 100 * float64(b.cpu[7]-a.cpu[7]) / float64(total)
		}
	}
	if wall := b.at.Sub(a.at).Microseconds(); wall > 0 {
		pressurePct = 100 * float64(b.pressureUS-a.pressureUS) / float64(wall)
	}
	return stealPct, pressurePct
}

// maxRSSMB is the process's peak resident set (VmHWM) in MiB.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code under test: the git commit when the tree is a
// repository, otherwise a digest of the Go sources and module files.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// hostMeta is the run metadata printed before the result line.
func hostMeta(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     commit(root),
	}
}
