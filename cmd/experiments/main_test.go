package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	ok := options{backend: "inprocess", faultSeed: 1, proofCacheMirror: 16}
	for _, tc := range []struct {
		name string
		edit func(*options)
		want string // substring of the error; "" = valid
	}{
		{"defaults", func(*options) {}, ""},
		{"remote backend", func(o *options) { o.backend = "remote" }, ""},
		{"unknown backend", func(o *options) { o.backend = "serapi" }, "unknown -backend"},
		{"remote with faults", func(o *options) { o.backend, o.faults = "remote", "drop-conn=0.1" }, ""},
		{"fleet with faults", func(o *options) { o.workers, o.faults = 2, "worker-kill=0.1" }, ""},
		{"faults in process", func(o *options) { o.faults = "drop-conn=0.1" }, "-faults requires"},
		{"bad fault site", func(o *options) { o.backend, o.faults = "remote", "no-such-site=0.1" }, "-faults:"},
		{"fleet and remote", func(o *options) { o.backend, o.workers = "remote", 2 }, "mutually exclusive"},
		{"worker addrs and remote", func(o *options) { o.backend, o.workerAddrs = "remote", "127.0.0.1:1" }, "mutually exclusive"},
		{"negative workers", func(o *options) { o.workers = -1 }, "-workers"},
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
