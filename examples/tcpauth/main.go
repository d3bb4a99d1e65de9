// TCPAuth: run the authentication server and a client in one process,
// talking over a real localhost TCP socket with the binary wire
// protocol — the deployment shape of cmd/authd + cmd/authcli condensed
// into a self-contained demo.
//
//	go run ./examples/tcpauth
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	authenticache "repro"
)

func main() {
	ctx := context.Background()
	// Factory side: manufacture and enroll one chip.
	chip, err := authenticache.NewChip(authenticache.ChipConfig{Seed: 7, CacheBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	levels := chip.AuthVoltagesMV(3, 10)
	emap, err := chip.Enroll(levels)
	if err != nil {
		log.Fatal(err)
	}
	cfg := authenticache.DefaultServerConfig()
	cfg.ChallengeBits = 128
	srv := authenticache.NewServer(cfg, 11)
	reserved := levels[len(levels)-1]
	key, err := srv.Enroll(ctx, "tcp-demo", emap, reserved)
	if err != nil {
		log.Fatal(err)
	}

	// Server side: listen on a random localhost port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ws := authenticache.NewWireServer(srv)
	go ws.Serve(ctx, l)
	defer ws.Close()
	fmt.Printf("server listening on %s\n", l.Addr())

	// Client side: dial, rotate the key once, authenticate three times.
	device := authenticache.NewResponder("tcp-demo", chip.Device(), key)
	wc, err := authenticache.Dial(ctx, l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer wc.Close()

	if err := wc.Remap(ctx, device); err != nil {
		log.Fatal(err)
	}
	fmt.Println("key update transaction complete: client and server rotated to a fresh logical map key")

	for i := 1; i <= 3; i++ {
		ok, sessionKey, err := wc.AuthenticateSession(ctx, device)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("authentication %d over TCP: accepted=%v, session key %x... (firmware time %v)\n",
			i, ok, sessionKey[:4], chip.Firmware().Elapsed().Round(1e6))
	}

	st := srv.Stats()
	fmt.Printf("server stats: issued=%d accepted=%d rejected=%d\n", st.Issued, st.Accepted, st.Rejected)
}
