package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/datagen"
	"repro/internal/workload"
)

// stream is one deterministic sequence of interactions: the mix picks the
// interaction and the profile's builder draws its parameters, both from one
// datagen generator. The same (seed, phase, lane) always yields the same
// requests, whatever the program under test does with them.
type stream struct {
	p   *workload.Profile
	cum []float64
	g   *datagen.Gen
}

// newStream derives the stream for one phase of a run and one lane within
// it (a connection in the closed loop; 0 for the shared open-loop arrival
// sequence).
func newStream(p *workload.Profile, mix string, seed int64, phase, lane int) (*stream, error) {
	w, ok := p.Mixes[mix]
	if !ok || len(w) != len(p.Interactions) {
		return nil, fmt.Errorf("profile %s has no usable mix %q", p.Name, mix)
	}
	cum := make([]float64, len(w))
	var sum float64
	for i, x := range w {
		sum += x
		cum[i] = sum
	}
	return &stream{p: p, cum: cum, g: datagen.New(seed*1_000_003 + int64(phase)*7919 + int64(lane))}, nil
}

// next returns the next interaction's index and its request.
func (s *stream) next() (int, workload.Request) {
	x := s.g.Float64() * s.cum[len(s.cum)-1]
	idx := len(s.cum) - 1
	for i, c := range s.cum {
		if x < c {
			idx = i
			break
		}
	}
	return idx, s.p.Interactions[idx].Build(s.g)
}

// streamHash digests the first n requests of each given phase's lane-0
// stream: identical seeds must print identical hashes on every run.
func streamHash(p *workload.Profile, mix string, seed int64, phases []int, n int) (string, error) {
	h := sha256.New()
	for _, ph := range phases {
		s, err := newStream(p, mix, seed, ph, 0)
		if err != nil {
			return "", err
		}
		for i := 0; i < n; i++ {
			_, r := s.next()
			fmt.Fprintf(h, "%s %s %s\n", r.Method, r.Path, r.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// mixConformance compares the realised interaction counts with the mix
// weights. It returns the largest deviation in standard errors of a
// binomial count, and the interaction it occurred on.
func mixConformance(p *workload.Profile, mix string, counts []int64) (float64, string) {
	w := p.Mixes[mix]
	var n, sum float64
	for i, c := range counts {
		n += float64(c)
		sum += w[i]
	}
	worst, at := 0.0, ""
	for i, c := range counts {
		q := w[i] / sum
		sd := math.Sqrt(n * q * (1 - q))
		if sd == 0 {
			if c != 0 {
				return math.Inf(1), p.Interactions[i].Name
			}
			continue
		}
		if z := math.Abs(float64(c)-n*q) / sd; z > worst {
			worst, at = z, p.Interactions[i].Name
		}
	}
	return worst, at
}

// pageTitles maps each interaction to the prefix of the <title> its page
// must carry, for the servlet and in-process auction applications and both
// bookstore presentations; the auction EJB presentation titles its two
// search pages "Items".
var pageTitles = map[string]map[string]string{
	"auction": {
		"home": "RUBiS Auction", "browsecategories": "Categories", "browseregions": "Regions",
		"searchitemsincategory": "Items", "searchitemsinregion": "Items",
		"browsecategoriesinregion": "Categories in region", "viewitem": "Item: ",
		"viewbidhistory": "Bid history", "viewuserinfo": "User ", "sellitemform": "Sell an item",
		"registeritem": "Item listed", "registeruserform": "Register", "registeruser": "Registered",
		"buynowauth": "Buy Now: log in", "buynow": "Item: ", "storebuynow": "Purchase complete",
		"putbidauth": "Bid: log in", "putbid": "Item: ", "storebid": "Bid stored",
		"putcommentauth": "Comment: log in", "putcomment": "User ", "storecomment": "Comment stored",
		"aboutmeauth": "About Me: log in", "aboutme": "About ", "login": "Login", "logout": "Logged out",
	},
	"bookstore": {
		"home": "TPC-W Home", "newproducts": "New Products: ", "bestsellers": "Best Sellers: ",
		"productdetail": "Product Detail", "searchrequest": "Search", "searchresults": "Search Results",
		"shoppingcart": "Shopping Cart", "customerregistration": "Registered", "buyrequest": "Buy Request",
		"buyconfirm": "Order Confirmed", "orderinquiry": "Order Inquiry", "orderdisplay": "Order Display",
		"adminrequest": "Product Detail", "adminconfirm": "Admin Confirm",
	},
}

// checkPage reports why a response is not the well-formed page of its
// interaction, or "" when it is.
func checkPage(profile, inter string, status int, body []byte) string {
	if status < 200 || status >= 400 {
		return fmt.Sprintf("status %d", status)
	}
	want, ok := pageTitles[profile][inter]
	if !ok {
		return "no expected title for " + inter
	}
	const head = "<html><head><title>"
	s := string(body)
	if !strings.HasPrefix(s, head) || !strings.HasSuffix(s, "</body></html>\n") {
		return "malformed page"
	}
	if !strings.HasPrefix(s[len(head):], want) {
		end := strings.Index(s, "</title>")
		if end < 0 {
			end = len(head)
		}
		return fmt.Sprintf("title %q, want prefix %q", s[len(head):end], want)
	}
	return ""
}
