// Package retry is the one client-side answer to admission control,
// shared by every HTTP client in the system (cmd/chaos, the kbrouter
// replica client): capped exponential backoff with deterministic
// jitter that never sleeps less than the server's Retry-After hint. The
// serving layer promises well-formed shed signals (429/503 + Retry-After);
// this package is the matching promise that clients back off instead of
// hammering.
package retry

import (
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Policy is a capped jittered exponential backoff. MaxRetries 0 disables
// retrying; the zero value of the other fields falls back to Default's.
type Policy struct {
	// MaxRetries bounds the retries spent per request (attempts - 1).
	MaxRetries int
	// Base is the exponential step for attempt 0; it doubles per attempt.
	Base time.Duration
	// Cap bounds the exponential step (before the Retry-After floor).
	Cap time.Duration
}

// Default is the policy a client of the server should ship: two retries,
// 50ms base, 2s cap — enough to ride out a shed burst without turning a dead
// server into a minutes-long stall.
func Default() Policy {
	return Policy{MaxRetries: 2, Base: 50 * time.Millisecond, Cap: 2 * time.Second}
}

// Wait computes the sleep before retry number attempt (0-based): half the
// capped exponential step plus jitter up to the other half, raised to the
// server's Retry-After hint when that is longer. A nil rng draws jitter
// from the global locked source (safe for concurrent callers); passing a
// seeded rng makes the schedule deterministic, the way the benchmark and
// chaos harnesses want it.
func (p Policy) Wait(attempt int, retryAfter time.Duration, rng *rand.Rand) time.Duration {
	base, cap := p.Base, p.Cap
	if base <= 0 {
		base = Default().Base
	}
	if cap <= 0 {
		cap = Default().Cap
	}
	d := base << attempt
	if d > cap || d <= 0 {
		d = cap
	}
	jitter := int64(d / 2)
	var j time.Duration
	if jitter > 0 {
		if rng != nil {
			j = time.Duration(rng.Int63n(jitter + 1))
		} else {
			j = time.Duration(rand.Int63n(jitter + 1))
		}
	}
	w := d/2 + j
	if retryAfter > w {
		w = retryAfter
	}
	return w
}

// RetryableStatus says whether a response status is worth retrying: the
// two explicit back-off-and-retry signals the serving layer emits (shed
// and transient-fault).
func RetryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// maxAfter caps the hint a server can impose through Retry-After. It
// bounds both forms: a huge-but-valid delay-seconds value would overflow
// time.Duration's int64 nanoseconds when multiplied out, and a far-future
// HTTP-date would stall a client for days on one header.
const maxAfter = 24 * time.Hour

// After reads a Retry-After header in either RFC 9110 form —
// delay-seconds ("120") or an absolute HTTP-date ("Wed, 21 Oct 2026
// 07:28:00 GMT") — returning how long the server asked the client to
// wait, capped at 24h. Absent, malformed, negative, and already-elapsed
// values are all 0: the client falls back to its own backoff schedule
// rather than guessing at the server's intent.
func After(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		if secs > int(maxAfter/time.Second) {
			return maxAfter
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		d := time.Until(at)
		if d < 0 {
			return 0
		}
		if d > maxAfter {
			return maxAfter
		}
		return d
	}
	return 0
}
