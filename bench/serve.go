package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// requestTimeout bounds one HTTP exchange with a server child; a job
// lifecycle's event stream gets the same bound.
const requestTimeout = 60 * time.Second

// server is a `pgb serve` child process and the client that drives it.
type server struct {
	cmd     *exec.Cmd
	exited  chan struct{}
	base    string
	client  *http.Client
	dataDir string
	// ready is the time from launch to the first healthy /healthz.
	ready time.Duration
}

// startServer launches `pgb serve` over dataDir on a free loopback port
// and waits until /healthz answers 200.
func (e *env) startServer(dataDir string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(e.runDir, fmt.Sprintf("serve-%d.log", port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.pgb, append([]string{"serve", "-addr", addr, "-data-dir", dataDir}, args...)...)
	cmd.Env = childEnv()
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := startChild(cmd); err != nil {
		_ = logf.Close() // nothing was written
		return nil, err
	}
	s := &server{
		cmd:     cmd,
		exited:  make(chan struct{}),
		base:    "http://" + addr,
		client:  newClient(),
		dataDir: dataDir,
	}
	go func() {
		_ = waitChild(cmd) // a server stopped by stop() exits on a signal
		_ = logf.Close()   // the log is diagnostics only
		close(s.exited)
	}()
	if err := s.awaitHealthy(start.Add(requestTimeout)); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w; server log:\n%s", err, logTail(logPath))
	}
	s.ready = time.Since(start)
	return s, nil
}

// clients is how many closed-loop clients load a server.
const clients = 2

// newClient returns a client holding at most one connection per
// closed-loop client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) awaitHealthy(deadline time.Time) error {
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return errors.New("pgb serve exited before it was ready")
		default:
		}
		if status, _, err := s.request(http.MethodGet, "/healthz", nil); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("pgb serve not ready within the timeout")
}

// stop shuts the server down and waits for it to exit.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited, which the wait below sees
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// request performs one exchange and returns the status and whole body.
func (s *server) request(method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// healthz is the part of GET /healthz the harness reads.
type healthz struct {
	ComparesExecuted int64 `json:"compares_executed"`
}

func (s *server) healthz() (healthz, error) {
	var h healthz
	status, data, err := s.request(http.MethodGet, "/healthz", nil)
	if err != nil {
		return h, err
	}
	if status != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", status)
	}
	return h, json.Unmarshal(data, &h)
}

// jobEvents is what following a run job's event stream observed.
type jobEvents struct {
	state string
	// snapshot and generated count the job's datasets resolved from the
	// store and generated on a store miss.
	snapshot, generated int
}

// follow reads GET /v1/runs/{id}/events to the terminal state event.
// onFirst runs when the first event arrives.
func (s *server) follow(id string, onFirst func()) (jobEvents, error) {
	var ev jobEvents
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return ev, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return ev, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event, first := "", true
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		if first {
			first = false
			onFirst()
		}
		if event == "state" {
			ev.state = data
			// The server ends the stream after the state event; reading
			// to EOF returns the connection to the pool.
			_, err := io.Copy(io.Discard, resp.Body)
			return ev, err
		}
		if strings.HasPrefix(data, "dataset ") {
			switch {
			case strings.HasSuffix(data, "(snapshot)"):
				ev.snapshot++
			case strings.HasSuffix(data, "(generated)"):
				ev.generated++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return ev, fmt.Errorf("reading events: %w", err)
	}
	return ev, errors.New("event stream ended without a state event")
}

// pgbCommand runs one pgb subcommand to completion.
func (e *env) pgbCommand(args ...string) error {
	cmd := exec.Command(e.pgb, args...)
	cmd.Env = childEnv()
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := startChild(cmd); err != nil {
		return err
	}
	if err := waitChild(cmd); err != nil {
		return fmt.Errorf("pgb %s: %w\n%s", args[0], err, out.String())
	}
	return nil
}

// logTail returns the last lines of a log file, for error messages.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-10):], "\n")
}

// trimBody shortens a response body for an error message.
func trimBody(data []byte) string {
	const limit = 200
	s := strings.TrimSpace(string(data))
	if len(s) > limit {
		s = s[:limit] + "…"
	}
	return s
}
