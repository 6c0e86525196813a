package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		addr     string
		maxConns int
		grace    time.Duration
		want     string // substring of the error; "" = valid
	}{
		{"defaults", "127.0.0.1:4711", 64, 5 * time.Second, ""},
		{"no drain", "127.0.0.1:4711", 1, 0, ""},
		{"ephemeral port", ":0", 8, time.Second, ""},
		{"empty addr", "", 64, 5 * time.Second, "-addr"},
		{"zero max-conns", "127.0.0.1:4711", 0, 5 * time.Second, "-max-conns"},
		{"negative max-conns", "127.0.0.1:4711", -3, 5 * time.Second, "-max-conns"},
		{"negative grace", "127.0.0.1:4711", 64, -time.Second, "-grace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.addr, tc.maxConns, tc.grace)
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
