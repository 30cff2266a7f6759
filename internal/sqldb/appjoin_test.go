package sqldb_test

import (
	"fmt"
	"testing"

	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/sqldb"
)

// joinShape is one aliased SELECT an application issues, split so the test
// can hide its WHERE clause from the index planner.
type joinShape struct {
	name    string
	head    string // SELECT ... FROM ... JOIN ... ON ...
	where   string
	tail    string // ORDER BY / LIMIT, or ""
	probe   string // a one-column query whose values become the argument
	indexed bool   // whether the FROM table is narrowed through an index
}

// TestAppJoinShapesIndexAndScanAgree runs every aliased join the auction and
// bookstore applications issue twice: as written, and with its WHERE clause
// wrapped in NOT (NOT (...)) so no top-level equality is visible and the
// FROM table is scanned. The two must return identical rows, and every
// alias-qualified equality on an indexed column must take the index.
func TestAppJoinShapesIndexAndScanAgree(t *testing.T) {
	auc := sqldb.New()
	as := auc.NewSession()
	defer as.Close()
	if err := auction.CreateSchema(sqldb.SessionExecer{S: as}); err != nil {
		t.Fatal(err)
	}
	if err := auction.Populate(sqldb.SessionExecer{S: as}, auction.TinyScale(), 1); err != nil {
		t.Fatal(err)
	}
	book := sqldb.New()
	bs := book.NewSession()
	defer bs.Close()
	if err := bookstore.CreateSchema(sqldb.SessionExecer{S: bs}); err != nil {
		t.Fatal(err)
	}
	if err := bookstore.Populate(sqldb.SessionExecer{S: bs}, bookstore.TinyScale(), 1); err != nil {
		t.Fatal(err)
	}

	const bookItems = "SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id"
	runs := []struct {
		db     *sqldb.DB
		s      *sqldb.Session
		shapes []joinShape
	}{
		{auc, as, []joinShape{
			{"viewitem", "SELECT i.name, i.description, i.max_bid, i.nb_bids, i.buy_now, u.nickname" +
				" FROM items i JOIN users u ON u.id = i.seller_id",
				"i.id = ?", "", "SELECT id FROM items", true},
			{"viewbidhistory", "SELECT b.bid, b.bid_date, u.nickname FROM bids b JOIN users u ON u.id = b.user_id",
				"b.item_id = ?", "ORDER BY b.bid DESC LIMIT 20", "SELECT item_id FROM bids", true},
			{"viewuserinfo", "SELECT c.rating, c.comment, u.nickname FROM comments c JOIN users u ON u.id = c.from_user",
				"c.to_user = ?", "ORDER BY c.id DESC LIMIT 10", "SELECT to_user FROM comments", true},
			{"aboutme", "SELECT b.bid, i.name FROM bids b JOIN items i ON i.id = b.item_id",
				"b.user_id = ?", "ORDER BY b.id DESC LIMIT 10", "SELECT user_id FROM bids", true},
			// Not issued by the application: a self-join, where only the
			// FROM alias's predicate may narrow the FROM table.
			{"self-join", "SELECT a.id, b.id FROM items a JOIN items b ON b.seller_id = a.seller_id",
				"b.id = ?", "ORDER BY a.id", "SELECT id FROM items", false},
		}},
		{book, bs, []joinShape{
			{"home", bookItems, "i.subject = ?", "ORDER BY i.total_sold DESC LIMIT 5", "SELECT subject FROM items", true},
			{"newproducts", bookItems, "i.subject = ?", "ORDER BY i.pub_date DESC LIMIT 50", "SELECT subject FROM items", true},
			{"bestsellers", bookItems, "i.subject = ?", "ORDER BY i.total_sold DESC LIMIT 50", "SELECT subject FROM items", true},
			{"productdetail", "SELECT i.id, i.title, a.lname, i.cost, i.subject, i.descr, i.pub_date, i.stock" +
				" FROM items i JOIN authors a ON a.id = i.author_id",
				"i.id = ?", "", "SELECT id FROM items", true},
			{"search subject", bookItems, "i.subject = ?", "ORDER BY i.title LIMIT 50", "SELECT subject FROM items", true},
			{"search title", bookItems, "i.title LIKE ?", "ORDER BY i.title LIMIT 50", "SELECT title FROM items", false},
			{"search author", bookItems, "a.lname LIKE ?", "ORDER BY i.title LIMIT 50", "SELECT lname FROM authors", false},
			{"shoppingcart", bookItems, "i.id = ?", "", "SELECT id FROM items", true},
			{"customer", "SELECT c.fname, c.lname, a.street, a.city FROM customers c JOIN address a ON a.id = c.addr_id",
				"c.id = ?", "", "SELECT id FROM customers", true},
			{"orderdisplay", "SELECT ol.item_id, i.title, ol.qty FROM order_line ol JOIN items i ON i.id = ol.item_id",
				"ol.order_id = ?", "", "SELECT order_id FROM order_line", true},
		}},
	}
	for _, run := range runs {
		for _, sh := range run.shapes {
			t.Run(sh.name, func(t *testing.T) {
				probe, err := run.s.Exec(sh.probe + " LIMIT 6")
				if err != nil {
					t.Fatal(err)
				}
				q := sh.head + " WHERE " + sh.where + " " + sh.tail
				scan := sh.head + " WHERE NOT (NOT (" + sh.where + ")) " + sh.tail
				rows := 0
				for _, p := range probe.Rows {
					arg := p[0]
					if _, indexed, err := sqldb.FromIndexed(run.db, q, arg); err != nil || indexed != sh.indexed {
						t.Fatalf("%s with %v: indexed = %v (%v), want %v", q, arg, indexed, err, sh.indexed)
					}
					if _, indexed, err := sqldb.FromIndexed(run.db, scan, arg); err != nil || indexed {
						t.Fatalf("%s: forced scan still indexed (%v)", scan, err)
					}
					got, err := run.s.Exec(q, arg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := run.s.Exec(scan, arg)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := fmt.Sprint(got.Columns, got.Rows), fmt.Sprint(want.Columns, want.Rows); g != w {
						t.Fatalf("%s with %v:\nindex %s\nscan  %s", q, arg, g, w)
					}
					rows += len(got.Rows)
				}
				if rows == 0 {
					t.Fatalf("%s: no rows for any probed argument", q)
				}
			})
		}
	}
}
