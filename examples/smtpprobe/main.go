// smtpprobe runs the paper's stated future work (§3.4): probing SMTP
// through a VPN-style tunnel service that allows arbitrary ports. It
// detects ISP port-25 blocking and STARTTLS-stripping middleboxes, and
// shows that the Luminati-faithful 443-only configuration cannot run the
// experiment at all.
//
//	go run ./examples/smtpprobe
package main

import (
	"context"
	"fmt"
	"log"

	tft "github.com/tftproject/tft"
	"github.com/tftproject/tft/internal/proxynet"
)

func main() {
	fmt.Println("Probing SMTP through an any-port tunnel (2% scale)...")
	run, err := tft.RunSMTP(context.Background(), tft.Options{Seed: 25, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	s := run.Analysis.Summary()
	fmt.Printf("\n%d nodes probed:\n", s.MeasuredNodes)
	fmt.Printf("  port 25 blocked outright: %d (%.1f%%)\n", s.Blocked, s.BlockedPct)
	fmt.Printf("  STARTTLS stripped:        %d (%.2f%%) across %d ASes\n\n",
		s.Stripped, s.StrippedPct, s.StripperASes)
	for _, t := range run.Tables() {
		fmt.Println(t)
	}

	// Walk one stripped node.
	for _, o := range run.Dataset.Observations {
		if o.Blocked || o.StartTLS {
			continue
		}
		fmt.Printf("example: node %s (%s) reached the mail server (%q)\n", o.ZID, o.NodeIP, o.Banner)
		fmt.Println("         but its EHLO reply arrived without STARTTLS — a downgrade middlebox")
		break
	}

	// The faithful 443-only service cannot run this at all.
	run.World.Super.AnyPortConnect = false
	conn, _, err := run.World.Client.Connect(context.Background(),
		proxynet.Options{}, "198.18.0.25:25")
	if err == nil {
		conn.Close()
	} else {
		fmt.Printf("\nwith CONNECT restricted to 443 (Luminati-faithful): %v\n", err)
		fmt.Println("— which is why the paper left SMTP to future work (§3.4).")
	}
}
