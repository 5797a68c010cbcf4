// Command simwebd serves a generated synthetic web over real HTTP and
// HTTPS on the loopback interface, so the simulation can be explored
// with curl or a browser. Virtual hosting is by Host header:
//
//	simwebd [-scale f] [-seed n]
//	curl -s -H 'Host: www.example.simnews' http://127.0.0.1:PORT/some/path
//
// The web is served as of the study date; a request picks another
// simulated day with the X-Sim-Day header (days since simclock.Epoch).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"

	"permadead/internal/persist"
	"permadead/internal/simclock"
	"permadead/internal/simweb"
	"permadead/internal/worldgen"
)

// sampleLinks is how many permanently dead links the banner lists.
const sampleLinks = 10

func main() {
	log.SetFlags(0)
	log.SetPrefix("simwebd: ")
	src := persist.NewSource(0.05)
	src.Register(flag.CommandLine, "scale", "seed")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "generating universe (scale %.2f)...\n", src.Scale)
	u := worldgen.Generate(src.Params())

	at := simclock.StudyTime
	srv := simweb.NewServer(u.World, at)
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// The simulated Wayback Machine's HTTP APIs (availability + CDX)
	// ride along on their own listener.
	apiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	apiSrv := &http.Server{Handler: u.Archive.Handler()}
	go apiSrv.Serve(apiLn) //nolint:errcheck
	defer apiSrv.Close()

	fmt.Printf("serving %d sites as of %s\n", u.World.Sites(), at)
	fmt.Printf("  http        %s\n", srv.HTTPAddr())
	fmt.Printf("  https       %s (self-signed)\n", srv.HTTPSAddr())
	fmt.Printf("  archive API %s  (/wayback/available, /cdx/search/cdx)\n", apiLn.Addr())
	fmt.Println("\nsample archive API queries:")
	for i, lp := range u.Plan.Links {
		if i >= 2 {
			break
		}
		fmt.Printf("  curl -s 'http://%s/wayback/available?url=%s'\n", apiLn.Addr(), lp.URL)
		fmt.Printf("  curl -s 'http://%s/cdx/search/cdx?url=%s&matchType=host&output=json'\n", apiLn.Addr(), lp.Host)
	}

	fmt.Println("\nsample permanently dead links to try:")
	for i, lp := range u.Plan.Links {
		if i >= sampleLinks {
			break
		}
		fmt.Printf("  curl -si -H 'Host: %s' 'http://%s%s' | head -1   # destined: %s\n",
			lp.Host, srv.HTTPAddr(), lp.Path, lp.Live)
	}
	fmt.Println("\nCtrl-C to stop.")

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	fmt.Println("\nshutting down")
}
