package sqldb

import (
	"fmt"
	"strings"

	"repro/internal/sqldb/sqlparse"
)

// FromIndexed reports whether execSelect narrows a SELECT's FROM table to an
// index posting list (returned as ids) instead of scanning it, qualifying
// WHERE columns by the FROM alias as execSelect does. It is exported to the
// external tests that run the applications' own join shapes.
func FromIndexed(db *DB, query string, args ...Value) ([]int64, bool, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, false, err
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return nil, false, fmt.Errorf("not a SELECT: %s", query)
	}
	t, err := db.Table(sel.From.Table)
	if err != nil {
		return nil, false, err
	}
	return candidateIDs(t, strings.ToLower(sel.From.Name()), sel.Where, args)
}
