package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time process pid has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Field 2, the command name, is parenthesised and may hold spaces;
	// utime and stime are the 12th and 13th fields after it.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %d fields after the command", pid, len(f))
	}
	var ticks int64
	for _, field := range f[11:13] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSSKB returns the peak resident set size (VmHWM) of process
// pid, in KiB.
func procPeakRSSKB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM of process %d: %w", pid, err)
		}
		return kb, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("process %d reports no VmHWM", pid)
}

// cpuModel names the host CPU from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// workerProcs is the GOMAXPROCS every child process runs with: worker
// counts are fixed, not read from the machine, so runs on different
// hosts do the same work per op.
const workerProcs = 2

// childEnv is the environment of every child process.
func childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workerProcs))
}

// children holds every child process still running, so a signal or the
// run watchdog can stop them all before the harness exits.
var children = struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
}{procs: make(map[*exec.Cmd]bool)}

// startChild starts cmd and registers it. The child is killed if the
// harness dies without stopping it.
func startChild(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	children.procs[cmd] = true
	return nil
}

// waitChild waits for a child started by startChild and deregisters it.
func waitChild(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.Lock()
	delete(children.procs, cmd)
	children.Unlock()
	return err
}

// killChildren kills every registered child.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.procs { //pgb:deterministic every child is killed; the order is unobservable
		_ = cmd.Process.Kill() // already-exited children report an error that changes nothing
	}
}
