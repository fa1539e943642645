package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runEnv identifies the host and build a run measured, so figures from
// different hosts or kernel paths are never compared silently.
type runEnv struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	AVX2FMA    bool   `json:"avx2_fma"`    // the CPU has AVX2 and FMA
	AsmKernels bool   `json:"asm_kernels"` // ... and BIDIAG_NOASM leaves the assembly kernels on
	Commit     string `json:"commit"`      // git HEAD when the checkout has one
	SourceHash string `json:"source_sha256"`
}

func environment() runEnv {
	e := runEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead("."),
		SourceHash: sourceHash("."),
	}
	var flags string
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if e.CPU == "" {
					e.CPU = strings.TrimSpace(v)
				}
			case "flags":
				if flags == "" {
					flags = " " + v + " "
				}
			}
		}
		f.Close()
	}
	e.AVX2FMA = runtime.GOARCH == "amd64" && strings.Contains(flags, " avx2 ") && strings.Contains(flags, " fma ")
	noasm := os.Getenv("BIDIAG_NOASM")
	e.AsmKernels = e.AVX2FMA && (noasm == "" || noasm == "0")
	return e
}

// gitHead resolves .git/HEAD without running git; "" when there is none.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// sourceHash digests every Go source and module file under root, so two
// runs of the same tree carry the same identity even without git.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || strings.HasSuffix(n, ".s") || n == "go.mod") {
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
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, starting at field 3.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14, utime
	st, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15, stime
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMiB is VmHWM, the peak resident set of process pid ("self" for
// this one), in MiB.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
