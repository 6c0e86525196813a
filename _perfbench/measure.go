package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one finished cmd/experiments process.
type child struct {
	stdout []byte
	wall   time.Duration // from start to exit, as the caller waits on it
	cpu    time.Duration // user + system, from the child's rusage
	maxRSS int64         // bytes, from the child's rusage
	stolen time.Duration // CPU time the hypervisor withheld from the machine meanwhile
	err    error         // start failure, non-zero exit or timeout
}

// elapsed is the invocation's wall time scaled by the share of the
// machine's CPU that was not stolen meanwhile: wall minus stolen CPU time
// per CPU. On a shared virtual machine the hypervisor at times withholds
// CPU from the guest (steal time), and wall time grows with it. Over 40
// warm invocations at one seed, raw wall time ranged 1.06-1.74 s and
// elapsed 0.89-1.49 s (1.07 s without the first); over 12 fleet ones,
// 5.96-7.91 s and 5.90-7.15 s. Subtracting all stolen time fitted fleet
// better but over-corrected warm (down to 0.20 s), whose two CPUs are not
// both busy throughout. Where nothing is stolen, elapsed is the wall time.
func (c child) elapsed() time.Duration {
	return c.wall - c.stolen/time.Duration(runtime.NumCPU())
}

// runChild runs the experiments binary once and waits for it. ctx bounds
// the run: on expiry the child is killed and waited for.
func runChild(ctx context.Context, bin string, args []string) child {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	steal0 := stealTicks()
	start := time.Now()
	err := cmd.Run()
	c := child{stdout: stdout.Bytes(), wall: time.Since(start)}
	c.stolen = time.Duration(stealTicks()-steal0) * time.Second / clockTicks
	if err != nil {
		c.err = fmt.Errorf("experiments %s: %v: %s", strings.Join(args, " "), err, lastLines(stderr.String(), 5))
		return c
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		c.err = fmt.Errorf("experiments %s: no rusage", strings.Join(args, " "))
		return c
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c.maxRSS = ru.Maxrss * 1024 // Linux reports kilobytes
	return c
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// clockTicks is the unit of /proc/stat's counters (USER_HZ), fixed at 100
// on Linux.
const clockTicks = 100

// stealTicks returns the machine's total steal time from /proc/stat, 0
// where there is none to read.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
