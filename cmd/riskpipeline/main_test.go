package main

import (
	"testing"
	"time"
)

func TestThreeDigits(t *testing.T) {
	for in, want := range map[time.Duration]string{
		0:                       "0s",
		87 * time.Nanosecond:    "87ns",
		412_345:                 "412µs",
		999_600:                 "1ms",
		9_876_543:               "9.88ms",
		412_345_678:             "412ms",
		6_012_345_678:           "6.01s",
		83*time.Second + 4e8:    "1m23.4s",
		2*time.Hour + 1234567e3: "2h0m0s",
	} {
		if got := threeDigits(in).String(); got != want {
			t.Errorf("threeDigits(%d ns) = %s, want %s", int64(in), got, want)
		}
	}
}
