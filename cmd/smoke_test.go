// Package cmd_test smoke-tests the commands that have no tests of their
// own: each must build, run to completion at tiny scale, exit zero and
// print the line its documentation promises. They are the by-hand tools
// of the reproduction (inspect a world, generate and crawl DITL traces,
// watch the §3.1.1 probe sequence on real sockets, point the prober at a
// live resolver) and the serving daemon, so a signature or behaviour
// change that breaks one must fail CI, not whoever reaches for it next.
package cmd_test

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
	"clientmap/internal/serve"
)

// build compiles ./<name> into dir and returns the binary's path.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./"+name).CombinedOutput(); err != nil {
		t.Fatalf("go build ./%s: %v\n%s", name, err, out)
	}
	return bin
}

// run executes bin and asserts exit 0 and every wanted output line.
func run(t *testing.T, want []string, bin string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	for _, w := range want {
		if !strings.Contains(string(out), w) {
			t.Errorf("%s %v: output missing %q\n--- output ---\n%s", filepath.Base(bin), args, w, out)
		}
	}
}

// firstA returns the address of the first A record in m.
func firstA(m *dnswire.Message) (netx.Addr, bool) {
	for _, rr := range m.Answers {
		if a, ok := rr.Data.(dnswire.A); ok {
			return a.Addr, true
		}
	}
	return 0, false
}

func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven commands; cachescan waits ~18 s of real time on its rate limits")
	}
	bindir := t.TempDir()

	t.Run("worldinfo", func(t *testing.T) {
		run(t, []string{"announced /24s", "resolvers"}, build(t, bindir, "worldinfo"), "-scale", "tiny")
	})

	t.Run("ditlgen", func(t *testing.T) {
		bin, traces := build(t, bindir, "ditlgen"), t.TempDir()
		run(t, []string{"wrote", "represented queries"}, bin, "-scale", "tiny", "-hours", "4", "-dir", traces)
		run(t, []string{"resolvers detected", "top 15 resolvers by Chromium query volume:\n  "},
			bin, "-scale", "tiny", "-hours", "4", "-dir", traces, "-crawl")
	})

	// statefsck over a state dir the pipeline wrote: clean, then with one
	// torn pass checkpoint, which a scan must report through exit 1.
	t.Run("statefsck", func(t *testing.T) {
		state, work := t.TempDir(), t.TempDir()
		run(t, []string{"wrote"}, build(t, bindir, "experiments"),
			"-scale", "tiny", "-state-dir", state, "-out", filepath.Join(work, "report.md"))
		fsck := build(t, bindir, "statefsck")
		run(t, []string{"probe-pass-3.snap", "valid"}, fsck, "-state-dir", state)
		snap := filepath.Join(state, "probe-pass-3.snap")
		fi, err := os.Stat(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(snap, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(fsck, "-state-dir", state).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("statefsck on a torn checkpoint: err %v, want exit status 1\n%s", err, out)
		}
		if !strings.Contains(string(out), "probe-pass-3.snap") {
			t.Errorf("report does not name the torn checkpoint\n%s", out)
		}
	})

	// clientmapd over a map cmd/experiments exported: it must announce its
	// listeners, answer the HTTP summary and a reverse-name A query for a
	// scope the map lists, and drain cleanly on SIGTERM.
	t.Run("clientmapd", func(t *testing.T) {
		work := t.TempDir()
		art := filepath.Join(work, "map.snap")
		run(t, []string{"wrote"}, build(t, bindir, "experiments"),
			"-scale", "tiny", "-serve-artifact", art, "-out", filepath.Join(work, "report.md"))
		cm, _, err := serve.ReadFile(art)
		if err != nil {
			t.Fatal(err)
		}
		if len(cm.Scopes) == 0 {
			t.Fatal("exported map lists no active scope")
		}

		d := exec.Command(build(t, bindir, "clientmapd"),
			"-artifact", art, "-http", "127.0.0.1:0", "-dns", "127.0.0.1:0", "-reload", "0")
		stderr, err := d.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		defer d.Process.Kill()
		lines := make(chan string)
		go func() {
			defer close(lines)
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				lines <- sc.Text()
			}
		}()
		var log []string
		var httpAddr, dnsAddr string
		for timeout := time.After(30 * time.Second); httpAddr == "" || dnsAddr == ""; {
			select {
			case l, ok := <-lines:
				if !ok {
					t.Fatalf("clientmapd exited before announcing its listeners:\n%s", strings.Join(log, "\n"))
				}
				log = append(log, l)
				if _, a, ok := strings.Cut(l, "http api on "); ok {
					httpAddr = a
				}
				if _, a, ok := strings.Cut(l, "dns on "); ok {
					dnsAddr, _, _ = strings.Cut(a, " ")
				}
			case <-timeout:
				t.Fatalf("clientmapd announced no listeners in 30 s:\n%s", strings.Join(log, "\n"))
			}
		}

		resp, err := http.Get("http://" + httpAddr + "/v1/summary")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/summary: status %d, want 200", resp.StatusCode)
		}
		name := serve.FormatReverseName(cm.Scopes[0].Scope.Addr(), serve.DefaultZone)
		ans, err := (&dnsnet.UDPClient{Timeout: 5 * time.Second}).Exchange(context.Background(), dnsAddr,
			dnswire.NewQuery(7, name, dnswire.TypeA))
		if err != nil {
			t.Fatalf("A %s: %v", name, err)
		}
		if a, ok := firstA(ans); ans.RCode != dnswire.RCodeSuccess || !ok || a != serve.ActiveA {
			t.Errorf("A %s: rcode %v, answers %v; want NOERROR with %v", name, ans.RCode, ans.Answers, serve.ActiveA)
		}

		if err := d.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		for l := range lines {
			log = append(log, l)
		}
		if err := d.Wait(); err != nil {
			t.Errorf("clientmapd after SIGTERM: %v, want exit 0", err)
		}
		if out := strings.Join(log, "\n"); !strings.Contains(out, "drained: clean=true") {
			t.Errorf("clientmapd log lacks %q:\n%s", "drained: clean=true", out)
		}
	})

	t.Run("cachescan", func(t *testing.T) {
		run(t, []string{"is ACTIVE", "done: this is the §3.1.1 probe sequence"}, build(t, bindir, "cachescan"))
	})

	// liveprobe against a resolver the test runs on loopback: it caches
	// www.google.com for 198.51.100.0/24 at scope /24 and nothing else,
	// and — like Google — answers a snoop only from cache.
	t.Run("liveprobe", func(t *testing.T) {
		cached := netx.MustParsePrefix("198.51.100.0/24")
		srv := dnsnet.NewServer(dnsnet.HandlerFunc(func(_ context.Context, _ netx.Addr, q *dnswire.Message) *dnswire.Message {
			r := q.Reply()
			if q.RecursionDesired || r.EDNS == nil || r.EDNS.ECS == nil ||
				q.Question().Name != "www.google.com" || r.EDNS.ECS.SourcePrefix() != cached {
				return r
			}
			r.EDNS.ECS.ScopePrefixLen = 24
			r.Answers = append(r.Answers, dnswire.RR{
				Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 300,
				Data: dnswire.A{Addr: netx.MustParsePrefix("192.0.2.1/32").Addr()},
			})
			return r
		}))
		addr, err := srv.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		bin := build(t, bindir, "liveprobe")
		run(t, []string{"198.51.100.0/24\tACTIVE\tdomain=www.google.com scope=/24", "# 1/1 prefixes active"},
			bin, "-resolver", addr.String(), "-prefix", "198.51.100.0/24", "-rate", "1000")
		run(t, []string{"203.0.113.0/24\tno-hit", "# 0/1 prefixes active"},
			bin, "-resolver", addr.String(), "-prefix", "203.0.113.0/24", "-rate", "1000", "-redundant", "1")
	})
}
