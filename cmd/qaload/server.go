package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one qaserve subprocess on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
}

// bootTimeout bounds exec → first /readyz 200; the built-in KB boots in
// well under a second, so a server that is not ready by then is broken.
const bootTimeout = 60 * time.Second

// startServer execs the prebuilt qaserve binary with -addr on a free
// loopback port plus args, and returns once /readyz answers 200, with
// the wall time from exec to that answer (a cold boot: KB build or WAL
// recovery, partitioning, pattern mining).
func startServer(ctx context.Context, bin string, args ...string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The server must never outlive the benchmark, however it dies.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		exited := false
		select {
		case <-s.exited:
			exited = true
		default:
		}
		if exited || ctx.Err() != nil || time.Since(start) > bootTimeout {
			s.kill()
			return nil, 0, fmt.Errorf("qaserve %v not ready after %v: %s", args, time.Since(start).Round(time.Millisecond), s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill is kill -9 plus wait: the crash the durable workload must
// survive, and the cheapest way to end a stateless server.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// health is the /healthz payload.
type health struct {
	Triples    int    `json:"triples"`
	Generation uint64 `json:"generation"`
}

func (s *server) health() (health, error) {
	var h health
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

var metricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ([0-9.eE+\-]+|NaN|[+\-]Inf)$`)

// scrape reads /metrics into a map keyed by the sample's full name,
// labels included, e.g. `qaserve_requests_total{outcome="rejected"}`.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		out[m[1]+m[2]] = v
	}
	return out, nil
}

// sumPrefix adds up every scraped sample whose name starts with prefix
// (all label values of one counter family).
func sumPrefix(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times; it
// is 100 on every Linux the Go toolchain supports.
const clockTicksPerSecond = 100

// cpuSeconds is the process's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func (s *server) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// hostCPU is the machine-wide /proc/stat cpu line: total and stolen
// jiffies. The steal share over a phase tells a slow machine from a
// slow program.
func hostCPU() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
