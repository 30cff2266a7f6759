package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuLayers charges a repro/internal package's CPU samples to a layer. The
// applications run inside their container, so they count as servlet; the
// HTTP client and the workload packages are the load side.
var cpuLayers = map[string]string{
	"httpd": "httpd", "lb": "lb", "ajp": "ajp",
	"servlet": "servlet", "scriptmod": "servlet", "auction": "servlet", "bookstore": "servlet",
	"rmi": "rmi", "ejb": "ejb", "cluster": "cluster", "pool": "pool",
	"sqldb/wire": "wire", "sqldb": "sqldb", "sqldb/sqlparse": "sqldb",
	"httpd/httpclient": "gen", "workload": "gen", "datagen": "gen",
}

// profile runs fn under the CPU profiler and returns the CPU time charged
// to each layer: every sample goes to the innermost frame in a
// repro/internal package, the write-ahead log's functions to "wal", frames
// of this benchmark (generator, tracer, relays) to "gen", and samples with
// neither (scheduler, garbage collector, network poller) to "runtime".
func profile(fn func()) (map[string]time.Duration, error) {
	f, err := os.CreateTemp("", "perfbench-cpu-*.pb.gz")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return chargeTraces(out)
}

// chargeTraces reads `go tool pprof -traces` output: blocks separated by
// dashed lines, each a sample value followed by its stack, leaf first.
func chargeTraces(out []byte) (map[string]time.Duration, error) {
	byLayer := map[string]time.Duration{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	var value time.Duration
	layer := ""
	inBlock := false // the header ends at the first dashed line
	first := false   // the next line carries the sample value
	flush := func() {
		if value > 0 {
			if layer == "" {
				layer = "runtime"
			}
			byLayer[layer] += value
		}
		value, layer = 0, ""
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, first = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		if first {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			value, fields, first = d, fields[1:], false
		}
		if layer == "" {
			layer = frameLayer(fields[0])
		}
	}
	flush()
	return byLayer, sc.Err()
}

// frameLayer names the layer a function belongs to, or "" for a frame
// outside the program and this benchmark.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "gen"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, name, _ := strings.Cut(rest, ".")
	if pkg == "sqldb" && strings.Contains(strings.ToLower(name), "wal") {
		return "wal"
	}
	if l, ok := cpuLayers[pkg]; ok {
		return l
	}
	return "other"
}

// runtimeSample reads the runtime counters the per-layer metrics difference.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	cpu        time.Duration
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	s.cpu = cpuTime()
	return s
}
