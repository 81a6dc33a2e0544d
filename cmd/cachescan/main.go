// Command cachescan demonstrates the cache-probing mechanics over real
// sockets: it mounts the Google Public DNS simulator and the authoritative
// servers on loopback UDP+TCP, then drives the paper's probe sequence with
// genuine DNS messages — PoP discovery, recursive cache fill, non-recursive
// ECS snooping, and the UDP rate limit that forces probing onto TCP.
//
// With -serve it leaves the servers running so external tools can probe
// them, e.g.:
//
//	dig @127.0.0.1 -p <port> +subnet=198.51.100.0/24 www.google.com
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/authdns"
	"clientmap/internal/clockx"
	"clientmap/internal/dnsnet"
	"clientmap/internal/dnswire"
	"clientmap/internal/domains"
	"clientmap/internal/gpdns"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cachescan: ")
	var (
		seed  = flag.Uint64("seed", 1, "seed for scope policies")
		serve = flag.Bool("serve", false, "leave the servers running until interrupted")
		pop   = flag.String("pop", "dls", "PoP the loopback client is routed to")
	)
	flag.Parse()

	router := anycast.NewRouter(randx.Seed(*seed), anycast.Catalog())
	popIdx := -1
	for i, p := range router.PoPs() {
		if p.Name == *pop {
			popIdx = i
		}
	}
	if popIdx < 0 {
		log.Fatalf("unknown PoP %q", *pop)
	}

	auth := authdns.New(randx.Seed(*seed), domains.Catalog())
	google := gpdns.NewServer(gpdns.Config{Clock: clockx.Real{}}, router)
	google.SetUpstream(auth)
	// Route every loopback source to the selected PoP.
	google.SetClientRouter(func(netx.Addr) int { return popIdx })

	authSrv := dnsnet.NewServer(auth)
	authUDP, err := authSrv.ListenUDP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer authSrv.Close()

	googleUDPSrv := dnsnet.NewServer(google.UDP())
	gUDP, err := googleUDPSrv.ListenUDP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer googleUDPSrv.Close()
	googleTCPSrv := dnsnet.NewServer(google.TCP())
	gTCP, err := googleTCPSrv.ListenTCP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer googleTCPSrv.Close()

	fmt.Printf("authoritative (UDP):      %s\n", authUDP)
	fmt.Printf("google public dns (UDP):  %s\n", gUDP)
	fmt.Printf("google public dns (TCP):  %s\n", gTCP)

	if *serve {
		fmt.Println("serving; interrupt to stop")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		return
	}

	ctx := context.Background()
	tcp := &dnsnet.TCPClient{Timeout: 3 * time.Second}
	defer tcp.Close()
	udp := &dnsnet.UDPClient{Timeout: 3 * time.Second}
	id := uint16(0)
	nextID := func() uint16 { id++; return id }

	// Stage 1: which PoP did anycast give us?
	r, err := udp.Exchange(ctx, gUDP.String(), dnswire.NewQuery(nextID(), gpdns.MyAddrDomain, dnswire.TypeTXT))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[1] o-o.myaddr TXT → PoP %q\n", r.Answers[0].Data.(dnswire.TXT).Strings[0])

	// Stage 2: pre-scan the authoritative for the ECS response scope.
	target := netx.MustParsePrefix("198.51.100.0/24")
	q := dnswire.NewQuery(nextID(), "www.google.com", dnswire.TypeA).WithECS(target)
	r, err = udp.Exchange(ctx, authUDP.String(), q)
	if err != nil {
		log.Fatal(err)
	}
	scope := netx.PrefixFrom(target.Addr(), int(r.EDNS.ECS.ScopePrefixLen))
	fmt.Printf("[2] authoritative pre-scan: %v → response scope %v\n", target, scope)

	// Stage 3: snoop before any client activity — must miss.
	snoop := func(id uint16) *dnswire.Message {
		m := dnswire.NewQuery(id, "www.google.com", dnswire.TypeA).WithECS(scope)
		m.RecursionDesired = false
		return m
	}
	r, err = tcp.Exchange(ctx, gTCP.String(), snoop(nextID()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[3] cold snoop over TCP: %d answers (cache miss, as expected)\n", len(r.Answers))

	// Stage 4: a "client" resolves through Google, filling one cache pool.
	cq := dnswire.NewQuery(nextID(), "www.google.com", dnswire.TypeA).WithECS(scope)
	if _, err := tcp.Exchange(ctx, gTCP.String(), cq); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[4] client resolved www.google.com through Google (RD=1)\n")

	// Stage 5: redundant snooping finds the entry in one of the pools.
	hits := 0
	var hitScope uint8
	for i := 0; i < 5; i++ {
		r, err = tcp.Exchange(ctx, gTCP.String(), snoop(nextID()))
		if err != nil {
			log.Fatal(err)
		}
		if len(r.Answers) > 0 {
			hits++
			hitScope = r.EDNS.ECS.ScopePrefixLen
		}
	}
	fmt.Printf("[5] 5 redundant snoops: %d hit(s), return scope /%d → prefix %v is ACTIVE\n",
		hits, hitScope, scope)

	// Stage 6: the UDP repeated-domain rate limit (why probing uses TCP).
	// A dropped probe gets no reply and costs its client the whole
	// timeout, so this stage's client waits 100 ms — ample for a loopback
	// reply — rather than 3 s, and the bucket refills less between probes.
	burst := &dnsnet.UDPClient{Timeout: 100 * time.Millisecond}
	dropped := 0
	for i := 0; i < 30; i++ {
		if _, err := burst.Exchange(ctx, gUDP.String(), snoop(nextID())); err != nil {
			dropped++
		}
	}
	fmt.Printf("[6] 30 rapid UDP probes for the same domain: %d dropped by the rate limit\n", dropped)
	fmt.Println("\ndone: this is the §3.1.1 probe sequence over real DNS sockets")
}
