package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestBackoffDelaySchedule(t *testing.T) {
	cases := []struct {
		name     string
		b        Backoff
		attempt  int
		min, max time.Duration
	}{
		{"first-default", Backoff{Jitter: -1}, 0, 2 * time.Millisecond, 2 * time.Millisecond},
		{"second-doubles", Backoff{Jitter: -1}, 1, 4 * time.Millisecond, 4 * time.Millisecond},
		{"third-doubles", Backoff{Jitter: -1}, 2, 8 * time.Millisecond, 8 * time.Millisecond},
		{"capped", Backoff{Jitter: -1}, 20, 250 * time.Millisecond, 250 * time.Millisecond},
		{"custom-base", Backoff{Base: 10 * time.Millisecond, Multiplier: 3, Jitter: -1}, 2, 90 * time.Millisecond, 90 * time.Millisecond},
		{"jitter-bounded", Backoff{Base: 100 * time.Millisecond, Jitter: 0.5}, 0, 50 * time.Millisecond, 150 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Jitter: -1 normalizes to the 0.2 default, so the exact-value
			// cases zero it explicitly.
			b := c.b
			if c.b.Jitter < 0 {
				b.Jitter = 0
				b = b.WithDefaults()
				b.Jitter = 0
			}
			d := b.Delay(c.attempt, 42)
			if d < c.min || d > c.max {
				t.Errorf("Delay(%d) = %v, want in [%v, %v]", c.attempt, d, c.min, c.max)
			}
		})
	}
}

func TestBackoffDelayDeterministicPerSeed(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Jitter: 0.4}
	if b.Delay(1, 7) != b.Delay(1, 7) {
		t.Error("same seed produced different jittered delays")
	}
	diff := false
	for s := int64(0); s < 16; s++ {
		if b.Delay(1, s) != b.Delay(1, s+100) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("jitter ignores the seed")
	}
}

func TestRetryTable(t *testing.T) {
	noSleep := func(time.Duration) {}
	cases := []struct {
		name      string
		attempts  int
		failUntil int // op fails while attempt < failUntil
		permAt    int // attempt at which op returns a permanent error (-1 = never)
		wantCalls int
		wantErr   string // "" = success
	}{
		{"first-try", 4, 0, -1, 1, ""},
		{"recovers-on-third", 4, 2, -1, 3, ""},
		{"recovers-on-last", 3, 2, -1, 3, ""},
		{"exhausted", 3, 99, -1, 3, "after 3 attempts"},
		{"single-attempt", 1, 99, -1, 1, "after 1 attempts"},
		{"permanent-stops-retry", 5, 99, 1, 2, "no such partition"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			calls := 0
			err := Backoff{Attempts: c.attempts, Sleep: noSleep}.Retry(1, func(attempt int) error {
				calls++
				if attempt == c.permAt {
					return Permanent(errors.New("no such partition"))
				}
				if attempt < c.failUntil {
					return fmt.Errorf("transient %d", attempt)
				}
				return nil
			})
			if calls != c.wantCalls {
				t.Errorf("op called %d times, want %d", calls, c.wantCalls)
			}
			if c.wantErr == "" {
				if err != nil {
					t.Errorf("unexpected error: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error = %v, want containing %q", err, c.wantErr)
			}
		})
	}
}

func TestRetrySleepsBetweenAttemptsOnly(t *testing.T) {
	var slept []time.Duration
	b := Backoff{Attempts: 3, Base: time.Millisecond, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	_ = b.Retry(1, func(int) error { return errors.New("always") })
	// 3 attempts -> 2 sleeps, growing.
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	if slept[1] <= slept[0]/2 {
		t.Errorf("schedule not growing: %v", slept)
	}
}

func TestRetryPreservesInjectedIdentity(t *testing.T) {
	err := Backoff{Attempts: 2, Sleep: func(time.Duration) {}}.Retry(1, func(int) error {
		return Errorf("drop")
	})
	if !errors.Is(err, ErrInjected) {
		t.Errorf("wrapped retry error lost ErrInjected: %v", err)
	}
}
