package gpdns

import (
	"fmt"
	"strconv"
	"testing"

	"clientmap/internal/netx"
)

// TestLazyKeyBytesMatchSprintf pins the lazy-fill sampler keys: the
// byte-built "gpdns/<name>/<natural>/<pop>/<pool>" and
// "gpdns/flip/..." keys must equal the fmt.Sprintf renderings they
// replaced, or every lazily filled cache line in the simulated resolver
// would move to a different arrival time and scope. A filled line's
// sampler head, continued by Lookup's "<pop>/<pool>" tail, must be the
// sampler state of the whole Sprintf key.
func TestLazyKeyBytesMatchSprintf(t *testing.T) {
	_, model, _ := lazySetup(t, 31)
	lf := NewLazyFill(model, PoolsPerPoP)
	srcs := []netx.Prefix{model.W.Prefixes[0].P.Prefix(), model.W.Prefixes[len(model.W.Prefixes)/2].P.Prefix()}
	lines := 0
	for di := range lf.doms {
		d := &lf.doms[di]
		if !d.SupportsECS {
			continue
		}
		for _, src := range srcs {
			l := lf.lineFor(int32(di), d, src)
			lines++
			for _, pp := range [][2]int{{0, 0}, {3, 1}, {12, 7}, {21, 11}} {
				var kb [24]byte
				tail := strconv.AppendInt(kb[:0], int64(pp[0]), 10)
				tail = append(tail, '/')
				tail = strconv.AppendInt(tail, int64(pp[1]), 10)
				full := fmt.Sprintf("gpdns/%s/%s/%d/%d", d.Name, l.natural, pp[0], pp[1])
				if l.sampler.Extend(tail) != model.EventKey([]byte(full)) {
					t.Errorf("line %s %v: head continued by %q is not the sampler state of %q", d.Name, src, tail, full)
				}
			}
		}
	}
	if lines == 0 {
		t.Fatal("the catalog has no ECS domain")
	}

	naturals := []netx.Prefix{
		netx.MustParsePrefix("10.0.0.0/20"),
		netx.MustParsePrefix("203.0.113.0/24"),
	}
	for _, name := range []string{"www.wikipedia.org", "cdn.fastly.net"} {
		for _, natural := range naturals {
			for _, pp := range [][2]int{{0, 0}, {3, 1}, {12, 7}} {
				popIdx, poolIdx := pp[0], pp[1]

				var kb [96]byte
				key := append(kb[:0], "gpdns/"...)
				key = append(key, name...)
				key = append(key, '/')
				key = natural.AppendTo(key)
				key = append(key, '/')
				key = strconv.AppendInt(key, int64(popIdx), 10)
				key = append(key, '/')
				key = strconv.AppendInt(key, int64(poolIdx), 10)
				want := fmt.Sprintf("gpdns/%s/%s/%d/%d", name, natural, popIdx, poolIdx)
				if string(key) != want {
					t.Errorf("fill key = %q, want %q", key, want)
				}

				const fill = int64(1609459200123456789)
				var fb [128]byte
				fkey := append(fb[:0], "gpdns/flip/"...)
				fkey = append(fkey, name...)
				fkey = append(fkey, '/')
				fkey = natural.AppendTo(fkey)
				fkey = append(fkey, '/')
				fkey = strconv.AppendInt(fkey, int64(popIdx), 10)
				fkey = append(fkey, '/')
				fkey = strconv.AppendInt(fkey, int64(poolIdx), 10)
				fkey = append(fkey, '/')
				fkey = strconv.AppendInt(fkey, fill, 10)
				fwant := fmt.Sprintf("gpdns/flip/%s/%s/%d/%d/%d", name, natural, popIdx, poolIdx, fill)
				if string(fkey) != fwant {
					t.Errorf("flip key = %q, want %q", fkey, fwant)
				}
				// Suffix draws truncate back to the base and append a tag.
				base := len(fkey)
				if got, want := string(append(fkey[:base], "/mag"...)), fwant+"/mag"; got != want {
					t.Errorf("suffix key = %q, want %q", got, want)
				}
			}
		}
	}
}
