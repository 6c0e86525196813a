package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the command itself when the test binary is invoked
// as `<test binary> experiments [flags]`, so TestRejectedFlagsExit2 can
// drive real flag parsing in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "experiments" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestValidateFlags(t *testing.T) {
	ok := options{fuel: 128, width: 8, backend: "inprocess", faultSeed: 1, proofCacheMirror: 16, wireTimeout: 5 * time.Second}
	for _, tc := range []struct {
		name string
		edit func(*options)
		want string // substring of the error; "" = valid
	}{
		{"defaults", func(*options) {}, ""},
		{"minimal budget", func(o *options) { o.fuel, o.width, o.parallelism = 1, 1, 1 }, ""},
		{"zero fuel", func(o *options) { o.fuel = 0 }, "-fuel must be"},
		{"negative fuel", func(o *options) { o.fuel = -5 }, "-fuel must be"},
		{"zero width", func(o *options) { o.width = 0 }, "-width must be"},
		{"negative width", func(o *options) { o.width = -1 }, "-width must be"},
		{"negative parallelism", func(o *options) { o.parallelism = -3 }, "-parallelism must be"},
		{"remote backend", func(o *options) { o.backend = "remote" }, ""},
		{"unknown backend", func(o *options) { o.backend = "serapi" }, "unknown -backend"},
		{"remote with faults", func(o *options) { o.backend, o.faults = "remote", "drop-conn=0.1" }, ""},
		{"fleet with faults", func(o *options) { o.workers, o.faults = 2, "worker-kill=0.1" }, ""},
		{"faults in process", func(o *options) { o.faults = "drop-conn=0.1" }, "-faults requires"},
		{"bad fault site", func(o *options) { o.backend, o.faults = "remote", "no-such-site=0.1" }, "-faults:"},
		{"fleet and remote", func(o *options) { o.backend, o.workers = "remote", 2 }, "mutually exclusive"},
		{"worker addrs and remote", func(o *options) { o.backend, o.workerAddrs = "remote", "127.0.0.1:1" }, "mutually exclusive"},
		{"negative workers", func(o *options) { o.workers = -1 }, "-workers"},
		{"wire timeout with fleet", func(o *options) { o.workers, o.wireTimeoutSet = 2, true }, ""},
		{"wire timeout with worker addrs", func(o *options) { o.workerAddrs, o.wireTimeoutSet = "127.0.0.1:1", true }, ""},
		{"wire timeout with remote", func(o *options) { o.backend, o.wireTimeoutSet = "remote", true }, ""},
		{"wire timeout in process", func(o *options) { o.wireTimeoutSet = true }, "-wire-timeout has no effect"},
		{"zero wire timeout", func(o *options) { o.backend, o.wireTimeout = "remote", 0 }, "-wire-timeout must be > 0"},
		{"negative wire timeout", func(o *options) { o.workers, o.wireTimeout = 2, -time.Second }, "-wire-timeout must be > 0"},
		{"checkerd with remote", func(o *options) { o.backend, o.checkerd = "remote", "127.0.0.1:1" }, ""},
		{"checkerd in process", func(o *options) { o.checkerd = "127.0.0.1:1" }, "-checkerd has no effect"},
		{"checkerd with fleet", func(o *options) { o.workers, o.checkerd = 2, "127.0.0.1:1" }, "-checkerd has no effect"},
		{"straggler with fleet", func(o *options) { o.workers, o.stragglerSet = 2, true }, ""},
		{"straggler in process", func(o *options) { o.stragglerSet = true }, "-straggler has no effect"},
		{"straggler with remote", func(o *options) { o.backend, o.stragglerSet = "remote", true }, "-straggler has no effect"},
		{"proof cache", func(o *options) { o.proofCache = "/tmp/pc" }, ""},
		{"proof cache read-only", func(o *options) { o.proofCache, o.proofCacheRO = "/tmp/pc", true }, ""},
		{"proof cache mirror", func(o *options) { o.proofCache, o.proofCacheMirror, o.mirrorSet = "/tmp/pc", 4, true }, ""},
		{"read-only without cache", func(o *options) { o.proofCacheRO = true }, "-proof-cache-readonly has no effect"},
		{"mirror without cache", func(o *options) { o.proofCacheMirror, o.mirrorSet = 4, true }, "-proof-cache-mirror has no effect"},
		{"default mirror given without cache", func(o *options) { o.mirrorSet = true }, "-proof-cache-mirror has no effect"},
		{"negative mirror", func(o *options) { o.proofCache, o.proofCacheMirror = "/tmp/pc", -1 }, "-proof-cache-mirror must be"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := ok
			tc.edit(&o)
			err := validateFlags(o)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("want valid, got %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("want error containing %q, got nil", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestRejectedFlagsExit2 runs the command with flags it must refuse: the
// execution-mode switches that no longer exist, out-of-range budgets and
// timeouts, and wire flags that nothing would read.
// Each must exit 2 with its complaint on stderr, before any work starts
// (nothing reaches stdout).
func TestRejectedFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-try-cache"}, "flag provided but not defined: -try-cache"},
		{[]string{"-search-parallelism", "2"}, "flag provided but not defined: -search-parallelism"},
		{[]string{"-intern=false"}, "flag provided but not defined: -intern"},
		{[]string{"-search-arena=false"}, "flag provided but not defined: -search-arena"},
		{[]string{"-par", "4"}, "flag provided but not defined: -par"},
		{[]string{"-wire-batch=false"}, "flag provided but not defined: -wire-batch"},
		{[]string{"-backend=remote", "-wire-timeout", "0"}, "-wire-timeout must be > 0"},
		{[]string{"-checkerd", "127.0.0.1:1"}, "-checkerd has no effect"},
		{[]string{"-wire-timeout", "1s"}, "-wire-timeout has no effect"},
		{[]string{"-straggler", "1s"}, "-straggler has no effect"},
		{[]string{"-fuel", "0"}, "-fuel must be >= 1"},
		{[]string{"-width", "0"}, "-width must be >= 1"},
		{[]string{"-parallelism", "-3"}, "-parallelism must be >= 0"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"experiments", "-fig1a"}, tc.args...)...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v; want status 2 (stderr: %s)", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("work started before the rejection: stdout %q", stdout.String())
			}
		})
	}
}
