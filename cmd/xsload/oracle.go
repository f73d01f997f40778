package main

import (
	"bytes"
	"fmt"

	"xmlsec/internal/core"
	"xmlsec/internal/dom"
	"xmlsec/internal/server"
)

// maxSamples caps the responses compared against the oracle per run.
const maxSamples = 200

// sampleEvery picks the responses the oracle checks: 1 in 256.
const sampleEvery = 256

// oracle recomputes views independently of the serving path: the
// paper's first-principles labeling (Engine.NaiveLabel: no propagation,
// no node-set index, no view cache), then core.Visibility, then
// View.WriteXML, over a fresh LoadSiteDir of the same site directory.
type oracle struct {
	site  *server.Site
	views map[[2]string]*core.View // (user, uri) → view
}

func newOracle(siteDir string) (*oracle, error) {
	st, err := server.LoadSiteDir(siteDir)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{site: st, views: map[[2]string]*core.View{}}, nil
}

func (o *oracle) view(user, uri string) (*core.View, *server.StoredDoc, error) {
	sd := o.site.Docs.Doc(uri)
	if sd == nil {
		return nil, nil, fmt.Errorf("oracle: no document %s", uri)
	}
	key := [2]string{user, uri}
	if v := o.views[key]; v != nil {
		return v, sd, nil
	}
	req := core.Request{Requester: o.site.RequesterFor(user, peerIP), URI: uri, DTDURI: sd.DTDURI}
	lb, err := o.site.Engine.NaiveLabel(req, sd.Doc, true)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: labeling %s for %s: %w", uri, user, err)
	}
	mask, _ := core.Visibility(sd.Doc, lb, o.site.Engine.PolicyFor(uri))
	v := &core.View{Doc: sd.Doc, Mask: mask, Labeling: lb}
	o.views[key] = v
	return v, sd, nil
}

// expect returns the exact bytes xmlsecd must answer to a read or a
// query: the serialization options are the ones its handlers use.
func (o *oracle) expect(s *site, r *request) ([]byte, error) {
	v, sd, err := o.view(s.users[r.user].name, s.docs[r.doc].uri)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if r.op == opRead {
		err = v.WriteXML(&b, dom.WriteOptions{Indent: "  ", OmitDocType: sd.DTDURI == ""})
		return b.Bytes(), err
	}
	res, err := v.QueryResult(r.arg)
	if err != nil {
		return nil, err
	}
	err = res.Write(&b, dom.WriteOptions{Indent: "  "})
	return b.Bytes(), err
}

// check compares up to maxSamples responses byte for byte with the
// oracle and returns how many it compared.
func (o *oracle) check(s *site, samples []sample) (int, error) {
	if len(samples) > maxSamples {
		samples = samples[:maxSamples]
	}
	for _, sm := range samples {
		want, err := o.expect(s, sm.req)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(sm.body, want) {
			return 0, fmt.Errorf("oracle mismatch: %s of %s by %s %q: got %d bytes, want %d",
				opNames[sm.req.op], s.docs[sm.req.doc].uri, s.users[sm.req.user].name, sm.req.arg, len(sm.body), len(want))
		}
	}
	return len(samples), nil
}
