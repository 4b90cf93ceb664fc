package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runDir holds everything the benchmark writes: the vuserved binary,
// the children's data directories and the trace files. It is relative
// to the working directory, which `go run -C bench .` and `go test`
// both make the bench directory.
const runDir = ".run"

// buildServer compiles cmd/vuserved out of the module this benchmark is
// nested in. The Go build cache makes every build after the first a
// no-op, and set-up time excludes it.
func buildServer(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(runDir, "bin", "vuserved"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "viewupdate/cmd/vuserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building vuserved: %w\n%s", err, out)
	}
	return bin, nil
}

// A child is one running vuserved.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port. Another process
// can take it before the child binds it; startChild retries once.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild execs vuserved on a probed port and waits until /readyz
// answers 200. If the child exits before that (it lost the race for
// the port) a second port is tried.
func startChild(ctx context.Context, bin string, args []string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		c := &child{base: "http://" + addr, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
		c.cmd = exec.Command(bin, append([]string{"-addr", addr, "-log-level", "error"}, args...)...)
		c.cmd.Stderr = c.stderr
		// If the benchmark dies without running its clean-up (kill -9),
		// the kernel still takes the child down with it.
		c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.cmd.Start(); err != nil {
			return nil, err
		}
		go func() {
			_ = c.cmd.Wait() // the exit status of a killed child carries no news
			close(c.exited)
		}()
		if lastErr = c.waitReady(ctx); lastErr == nil {
			return c, nil
		}
		c.kill()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (c *child) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("vuserved exited during boot: %s", strings.TrimSpace(c.stderr.String()))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("vuserved not ready after 30s: %s", strings.TrimSpace(c.stderr.String()))
}

// kill sends SIGKILL and reaps the child. It is the only way the
// benchmark stops a server: a crash is what the durable workloads have
// to survive, and the in-memory ones have nothing to flush.
func (c *child) kill() {
	if c == nil || c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Kill() // fails only if it already exited
	<-c.exited
}

// cpuMS reads the child's user+system CPU time from /proc.
func (c *child) cpuMS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	const ticksPerSecond = 100 // USER_HZ, fixed on Linux
	return (utime + stime) * 1000 / ticksPerSecond, nil
}

// getJSON fetches url and decodes the body into out.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// counters scrapes the child's obs counters from /metricsz.
func (c *child) counters(hc *http.Client) (map[string]float64, error) {
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	err := getJSON(hc, c.base+"/metricsz", &snap)
	return snap.Counters, err
}

// exec posts a sqlish script to /execz.
func (c *child) exec(hc *http.Client, script string) error {
	body, err := json.Marshal(map[string]string{"script": script})
	if err != nil {
		return err
	}
	resp, err := hc.Post(c.base+"/execz", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("execz: status %d: %s", resp.StatusCode, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// readView reads a whole view over the wire.
func readView(hc *http.Client, base, view string) ([][]string, error) {
	var reply struct {
		Rows [][]string `json:"rows"`
	}
	err := getJSON(hc, base+"/views/"+view, &reply)
	return reply.Rows, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
