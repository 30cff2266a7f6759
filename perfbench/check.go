package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/sqldb"
)

// bidState is what the bid invariant compares: the rows in bids and the
// sum of items.nb_bids, the counter every stored bid increments.
type bidState struct{ rows, nbBids int64 }

func readBidState(db *sqldb.DB) (bidState, error) {
	s := db.NewSession()
	defer s.Close()
	rows, err := s.Exec("SELECT COUNT(*) FROM bids")
	if err != nil {
		return bidState{}, fmt.Errorf("count bids: %w", err)
	}
	sum, err := s.Exec("SELECT SUM(nb_bids) FROM items")
	if err != nil {
		return bidState{}, fmt.Errorf("sum nb_bids: %w", err)
	}
	return bidState{rows: rows.Rows[0][0].AsInt(), nbBids: sum.Rows[0][0].AsInt()}, nil
}

// checkBids verifies that every acknowledged storebid added exactly one
// bids row and one to Σ items.nb_bids, and nothing else did.
func checkBids(where string, before, after bidState, stored int64) error {
	if after.rows-before.rows != stored || after.nbBids-before.nbBids != stored {
		return fmt.Errorf("%s: %d storebid answered 200, but bids grew by %d and sum(nb_bids) by %d",
			where, stored, after.rows-before.rows, after.nbBids-before.nbBids)
	}
	return nil
}

// dbDigest hashes every table's rows in scan order, so two replicas that
// applied the same writes in the same order digest equal.
func dbDigest(db *sqldb.DB) (string, error) {
	s := db.NewSession()
	defer s.Close()
	h := sha256.New()
	for _, name := range db.TableNames() {
		res, err := s.Exec("SELECT * FROM " + name)
		if err != nil {
			return "", fmt.Errorf("dump %s: %w", name, err)
		}
		fmt.Fprintf(h, "%s %v\n", name, res.Rows)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
