// Laboratory: the paper's running example, end to end, over HTTP.
//
// The program assembles the site of Examples 1 and 2 — the laboratory
// DTD (Figure 1), the CSlab document (Figure 3), the four access
// authorizations, users Tom (group Foreign) and Sam (group Admin) —
// starts the security processor on a loopback port, and fetches the
// document as each user, printing the views the server returns. It
// also fetches the loosened DTD a requester would use to validate them.
//
//	go run ./examples/laboratory
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"xmlsec/internal/authz"
	"xmlsec/internal/labexample"
	"xmlsec/internal/server"
)

func main() {
	site := server.NewSite()

	// Subjects: the directory of the examples plus credentials.
	site.Directory = labexample.Directory()
	site.Engine.Hierarchy.Dir = site.Directory
	for _, u := range []struct{ name, pass string }{
		{"Tom", "tom-secret"}, {"Sam", "sam-secret"},
	} {
		if err := site.Users.Set(u.name, u.pass); err != nil {
			log.Fatal(err)
		}
	}

	// Objects: the DTD and the document.
	if err := site.Docs.AddDTD(labexample.DTDURI, labexample.DTDSource); err != nil {
		log.Fatal(err)
	}
	if err := site.Docs.AddDocument(labexample.DocURI, labexample.DocSource); err != nil {
		log.Fatal(err)
	}

	// Authorizations: Example 1, loaded through the XACL markup the
	// processor uses (the first tuple is schema level).
	for i, tuple := range labexample.AuthTuples {
		a := authz.MustParse(tuple)
		x := &authz.XACL{About: a.Object.URI, Level: authz.InstanceLevel, Auths: []*authz.Authorization{a}}
		if i == 0 {
			x.Level = authz.SchemaLevel
		}
		if _, err := site.LoadXACL(x.String()); err != nil {
			log.Fatal(err)
		}
	}

	// Simulate the paper's network locations over loopback: trust the
	// X-Forwarded-For header (the demo is its own trusted proxy) and
	// teach the resolver the example hosts, so Tom connects "from"
	// infosys.bld1.it at 130.100.50.8 and Sam from 130.89.56.8 —
	// exactly the triples Example 2 uses.
	site.TrustForwardedFor = true
	res := site.Resolver.(*server.StaticResolver)
	res.Add("130.89.56.8", "adminhost.lab.com")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: site.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	for _, u := range []struct{ name, pass, from string }{
		{"Tom", "tom-secret", "130.100.50.8"}, // infosys.bld1.it — Example 2
		{"Sam", "sam-secret", "130.89.56.8"},  // the Admin host of Example 1
		{"", "", "200.1.2.3"},                 // anonymous, outside
	} {
		label := u.name
		if label == "" {
			label = "anonymous"
		}
		body, status := get(base+"/docs/"+labexample.DocURI, u.name, u.pass, u.from)
		fmt.Printf("--- GET /docs/%s as %s from %s (HTTP %d) ---\n%s\n",
			labexample.DocURI, label, u.from, status, body)
	}

	body, status := get(base+"/dtds/"+labexample.DTDURI, "", "", "200.1.2.3")
	fmt.Printf("--- GET /dtds/%s (HTTP %d) — the loosened DTD ---\n%s\n", labexample.DTDURI, status, body)
}

func get(url, user, pass, from string) (string, int) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("X-Forwarded-For", from)
	if user != "" {
		req.SetBasicAuth(user, pass)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b), resp.StatusCode
}
