package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// mvccDB builds the transfer ledger the torture tests hammer: two accounts
// whose balances always sum to 200 in every committed state.
func mvccDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, `CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`)
	mustTx(t, s, "INSERT INTO acct (id, bal) VALUES (1, 100)")
	mustTx(t, s, "INSERT INTO acct (id, bal) VALUES (2, 100)")
	return db
}

// TestMVCCSnapshotTorture runs transactional writers that move money
// between the two accounts (every committed state sums to 200) against
// snapshot readers that assert per-statement consistency — run with -race.
// A reader that ever observes a mid-transaction sum has seen uncommitted
// state; a reader that observes a sum other than 200 has seen a torn
// snapshot (one row from before a commit, one from after). Readers run
// until the last writer finishes, so they overlap every write.
func TestMVCCSnapshotTorture(t *testing.T) {
	db := mvccDB(t)
	const writers, readers, rounds = 4, 4, 200
	var writersWG, readersWG sync.WaitGroup
	var stop atomic.Bool

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				if _, err := s.Exec("BEGIN"); err != nil {
					t.Error(err)
					return
				}
				amt := Int(int64(1 + (w+i)%5))
				_, err1 := s.Exec("UPDATE acct SET bal = bal - ? WHERE id = 1", amt)
				_, err2 := s.Exec("UPDATE acct SET bal = bal + ? WHERE id = 2", amt)
				if err1 != nil || err2 != nil {
					// A lock-wait abort rolled the transaction back; every
					// other error leaves it open — roll back explicitly.
					s.Exec("ROLLBACK")
					continue
				}
				// Odd rounds roll back: the snapshot published at the next
				// read must not contain the undone halves either.
				end := "COMMIT"
				if i%2 == 1 {
					end = "ROLLBACK"
				}
				if _, err := s.Exec(end); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			s := db.NewSession()
			defer s.Close()
			for !stop.Load() {
				res, err := s.Exec("SELECT id, bal FROM acct")
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 2 {
					t.Errorf("snapshot saw %d rows, want 2", len(res.Rows))
					return
				}
				sum := res.Rows[0][1].AsInt() + res.Rows[1][1].AsInt()
				if sum != 200 {
					t.Errorf("inconsistent snapshot: balances sum to %d, want 200", sum)
					return
				}
			}
		}()
	}
	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()

	st := db.MVCCStats()
	if st.SnapshotReads == 0 || st.LockBypasses == 0 {
		t.Errorf("snapshot read path never engaged: %+v", st)
	}
	if st.Refreshes == 0 {
		t.Errorf("writers published versions but no snapshot was ever rebuilt: %+v", st)
	}
}

// TestMVCCReadOnlyTxnConsistency: a transaction that only reads must see
// committed state in every statement. Its reads hold no locks a writer
// could wait on; the one legitimate failure is a lock-wait timeout on the
// snapshot-refresh slow path, which aborts the reader cleanly — the test
// restarts it and keeps asserting consistency.
func TestMVCCReadOnlyTxnConsistency(t *testing.T) {
	db := mvccDB(t)
	var wg sync.WaitGroup
	var stop atomic.Bool

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 300; i++ {
			mustTx(t, s, "BEGIN")
			mustTx(t, s, "UPDATE acct SET bal = bal - 1 WHERE id = 1")
			mustTx(t, s, "UPDATE acct SET bal = bal + 1 WHERE id = 2")
			mustTx(t, s, "COMMIT")
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for !stop.Load() {
			if _, err := s.Exec("BEGIN"); err != nil {
				t.Error(err)
				return
			}
			aborted := false
			for j := 0; j < 3; j++ {
				res, err := s.Exec("SELECT id, bal FROM acct")
				if err != nil {
					if strings.Contains(err.Error(), ErrLockWaitTimeout.Error()) {
						aborted = true // refresh slow path timed out; txn rolled back
						break
					}
					t.Errorf("read-only txn statement failed: %v", err)
					return
				}
				if sum := res.Rows[0][1].AsInt() + res.Rows[1][1].AsInt(); sum != 200 {
					t.Errorf("read-only txn saw sum %d, want 200", sum)
				}
			}
			if aborted {
				continue
			}
			if _, err := s.Exec("COMMIT"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestMVCCReadYourWrites: once a transaction has written a table, its own
// reads must switch from the snapshot to the live locked rows — and other
// sessions' snapshot reads must keep seeing the pre-transaction state
// until COMMIT publishes a new version.
func TestMVCCReadYourWrites(t *testing.T) {
	db := mvccDB(t)
	w := db.NewSession()
	defer w.Close()
	r := db.NewSession()
	defer r.Close()

	// Warm the snapshot first: a COLD snapshot build takes the table read
	// lock and would wait out the writer's open transaction; a warm one is
	// served lock-free while the writer holds the table.
	mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")

	mustTx(t, w, "BEGIN")
	mustTx(t, w, "UPDATE acct SET bal = 999 WHERE id = 1")
	res := mustTx(t, w, "SELECT bal FROM acct WHERE id = 1")
	if got := res.Rows[0][0].AsInt(); got != 999 {
		t.Fatalf("writer read its own write as %d, want 999", got)
	}
	res = mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")
	if got := res.Rows[0][0].AsInt(); got != 100 {
		t.Fatalf("snapshot reader saw uncommitted %d, want 100", got)
	}
	mustTx(t, w, "COMMIT")
	res = mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")
	if got := res.Rows[0][0].AsInt(); got != 999 {
		t.Fatalf("post-commit snapshot saw %d, want 999", got)
	}
}

// TestMVCCSnapshotSeesRolledBackNothing: a rollback restores the table
// without publishing a version, so the pre-transaction snapshot stays
// valid and no reader ever sees the undone rows.
func TestMVCCSnapshotSeesRolledBackNothing(t *testing.T) {
	db := mvccDB(t)
	w := db.NewSession()
	defer w.Close()
	r := db.NewSession()
	defer r.Close()

	// Warm the snapshot.
	mustTx(t, r, "SELECT bal FROM acct WHERE id = 1")

	mustTx(t, w, "BEGIN")
	mustTx(t, w, "INSERT INTO acct (id, bal) VALUES (3, 7)")
	mustTx(t, w, "ROLLBACK")

	res := mustTx(t, r, "SELECT COUNT(*) FROM acct")
	if got := res.Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("snapshot saw %d rows after rollback, want 2", got)
	}
}

// TestMVCCStatsCounters pins the counter semantics: every snapshot-served
// SELECT increments SnapshotReads once, and each table it served without
// touching the lock manager increments LockBypasses.
func TestMVCCStatsCounters(t *testing.T) {
	db := mvccDB(t)
	s := db.NewSession()
	defer s.Close()

	before := db.MVCCStats()
	mustTx(t, s, "SELECT * FROM acct") // cold: refresh, no bypass
	mid := db.MVCCStats()
	if mid.SnapshotReads != before.SnapshotReads+1 {
		t.Fatalf("SnapshotReads %d, want %d", mid.SnapshotReads, before.SnapshotReads+1)
	}
	if mid.Refreshes != before.Refreshes+1 {
		t.Fatalf("Refreshes %d, want %d", mid.Refreshes, before.Refreshes+1)
	}
	for i := 0; i < 5; i++ {
		mustTx(t, s, "SELECT * FROM acct") // warm: pure bypass
	}
	after := db.MVCCStats()
	if after.LockBypasses != mid.LockBypasses+5 {
		t.Fatalf("LockBypasses %d, want %d", after.LockBypasses, mid.LockBypasses+5)
	}
	if after.Refreshes != mid.Refreshes {
		t.Fatalf("warm reads rebuilt snapshots: %+v", after)
	}
}

// TestMVCCResultsImmutableAfterWrite: a result handed to a reader must not
// change when a later transaction updates the row — the copy-on-write
// contract that lets results alias storage.
func TestMVCCResultsImmutableAfterWrite(t *testing.T) {
	db := mvccDB(t)
	s := db.NewSession()
	defer s.Close()
	res := mustTx(t, s, "SELECT id, bal FROM acct ORDER BY id")
	mustTx(t, s, "UPDATE acct SET bal = 0 WHERE id = 1")
	if got := res.Rows[0][1].AsInt(); got != 100 {
		t.Fatalf("held result mutated by later write: bal %d, want 100", got)
	}
	for i := 0; i < 3; i++ {
		mustTx(t, s, fmt.Sprintf("UPDATE acct SET bal = %d WHERE id = 2", i))
	}
	if got := res.Rows[1][1].AsInt(); got != 100 {
		t.Fatalf("held result mutated by later writes: bal %d, want 100", got)
	}
}

// TestMVCCWriteHotSnapshotReleased: once the adaptive policy routes a
// write-hot table's reads to the live path, the stale clone it installed
// is swapped for a hollow one — no rows, scan order or indexes held — and
// reads keep taking the live path and seeing every commit.
func TestMVCCWriteHotSnapshotReleased(t *testing.T) {
	db := mvccDB(t)
	s := db.NewSession()
	defer s.Close()
	tbl, err := db.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	mustTx(t, s, "SELECT * FROM acct") // builds the first snapshot
	if sp := tbl.snap.Load(); sp == nil || len(sp.rows) != 2 {
		t.Fatalf("first snapshot not built: %+v", sp)
	}
	before := db.MVCCStats()
	for i := 1; i <= 5; i++ {
		// Each commit kills the snapshot before it served a read.
		mustTx(t, s, "UPDATE acct SET bal = bal + 1 WHERE id = 1")
		res := mustTx(t, s, "SELECT bal FROM acct WHERE id = 1")
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != int64(100+i) {
			t.Fatalf("round %d: read %v, want %d", i, res.Rows, 100+i)
		}
		sp := tbl.snap.Load()
		if sp == nil {
			t.Fatalf("round %d: the table lost its write-hot mark", i)
		}
		if sp.rows != nil || sp.indexes != nil || sp.rowOrder != nil {
			t.Fatalf("round %d: stale snapshot still holds %d rows, %d indexes", i, len(sp.rows), len(sp.indexes))
		}
	}
	after := db.MVCCStats()
	if got := after.LiveFallbacks - before.LiveFallbacks; got != 5 {
		t.Fatalf("LiveFallbacks advanced by %d, want 5", got)
	}
	if after.Refreshes != before.Refreshes {
		t.Fatalf("write-hot table was recloned: %+v", after)
	}
}

// TestLiveScansDuringDeletes runs full scans of a write-hot table — live
// reads under shared locks — concurrently with deletes and inserts (run
// with -race). Scans must never write the table: a scan that compacted
// the scan order in place under a shared lock raced the other readers and
// could emit a row twice or drop one.
func TestLiveScansDuringDeletes(t *testing.T) {
	db := New()
	s := db.NewSession()
	defer s.Close()
	mustTx(t, s, "CREATE TABLE q (id INT PRIMARY KEY AUTO_INCREMENT, v INT)")
	const rows = 64
	for i := 0; i < rows; i++ {
		mustTx(t, s, "INSERT INTO q (v) VALUES (?)", Int(int64(i)))
	}
	// A snapshot that dies unread marks the table write-hot for good.
	mustTx(t, s, "SELECT id FROM q")
	mustTx(t, s, "UPDATE q SET v = 0 WHERE id = 1")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := db.NewSession()
		defer w.Close()
		for i := 0; i < 400; i++ {
			// Delete the oldest row, then replace it: between statements
			// the table holds rows-1 or rows rows.
			if _, err := w.Exec("DELETE FROM q WHERE id = ?", Int(int64(i+1))); err != nil {
				t.Error(err)
				return
			}
			if _, err := w.Exec("INSERT INTO q (v) VALUES (?)", Int(int64(rows+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := db.NewSession()
			defer rs.Close()
			for i := 0; i < 200; i++ {
				res, err := rs.Exec("SELECT id FROM q")
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[int64]bool, len(res.Rows))
				for _, row := range res.Rows {
					if seen[row[0].AsInt()] {
						t.Errorf("scan emitted row %d twice", row[0].AsInt())
						return
					}
					seen[row[0].AsInt()] = true
				}
				if n := len(res.Rows); n != rows && n != rows-1 {
					t.Errorf("scan saw %d rows, want %d or %d", n, rows-1, rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.MVCCStats().LiveFallbacks; got < 4*200 {
		t.Fatalf("%d live reads, want every scan on the live path", got)
	}
}
