package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gemm"
)

// baseRecord describes the host and the run, so a number can be read
// without knowing where it came from.
func baseRecord(cfg config, w workload, rounds int, wall time.Duration, s *sampler) map[string]any {
	counts := s.counts()
	beyondP90 := map[string]int{}
	p50, p90 := map[string]float64{}, map[string]float64{}
	for c, n := range counts {
		beyondP90[c] = beyond(n, 0.9)
		p50[c] = median(s.byClass[c])
		p90[c] = quantile(s.byClass[c], 0.9)
	}
	return map[string]any{
		"workload":         w.name,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"traced":           cfg.trace,
		"rounds":           rounds,
		"timed_s":          wall.Seconds(),
		"host_steal_share": s.steal,
		"class_ops":        counts,
		"class_beyond_p90": beyondP90,
		"class_p50_ms":     p50,
		"class_p90_ms":     p90,
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"gemm_kernel":      gemm.ActiveKernel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// fsType names the filesystem holding path, from statfs's magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "unknown"
}

// cpuTicks reads the host-wide steal and total ticks from /proc/stat.
// Steal is time the hypervisor ran something else on this machine's
// CPUs; on a shared host it is the main source of run-to-run noise.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of CPU time stolen between two cpuTicks
// readings (0 when /proc/stat is unavailable).
func stealShare(s0, t0, s1, t1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}
