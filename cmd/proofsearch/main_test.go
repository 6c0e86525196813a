package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	ok := options{setting: "hint", fuel: 128, width: 8}
	for _, tc := range []struct {
		name string
		edit func(*options)
		want string // substring of the error; "" = valid
	}{
		{"defaults", func(*options) {}, ""},
		{"vanilla", func(o *options) { o.setting = "vanilla" }, ""},
		{"minimal budget", func(o *options) { o.fuel, o.width = 1, 1 }, ""},
		{"misspelled setting", func(o *options) { o.setting = "hnt" }, "unknown -setting"},
		{"empty setting", func(o *options) { o.setting = "" }, "unknown -setting"},
		{"zero fuel", func(o *options) { o.fuel = 0 }, "-fuel must be"},
		{"negative fuel", func(o *options) { o.fuel = -5 }, "-fuel must be"},
		{"zero width", func(o *options) { o.width = 0 }, "-width must be"},
		{"negative width", func(o *options) { o.width = -1 }, "-width must be"},
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
