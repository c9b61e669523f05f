//! What a stored row costs: live heap bytes per row, counted exactly.
//!
//! A counting global allocator keeps the bytes allocated and not yet
//! freed. Each table is measured as the growth of that count across its
//! load, so the figure holds the rows, the row slab and every index
//! entry, and nothing transient. Loads go through `Database::insert_rows`,
//! as the workloads' loaders do: the bank's 100 000 accounts in one call
//! (the benchmark's `smr_bank` and `smr_kv_read95` table), the TPC-C
//! tables at the benchmark's scale (10 districts x 300 customers, 10 000
//! items, 300 orders per district) district by district. The bank is
//! loaded a second time one `Table::insert` at a time, which shows what
//! building the indexes in bulk saves.
//!
//! Run with `cargo test --release -p shadowdb-sqldb --test row_bytes --
//! --nocapture` to see the table.

use shadowdb_sqldb::table::Table;
use shadowdb_sqldb::{Database, EngineProfile, SqlValue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method hands its caller's layout, pointer and size to the
// system allocator unchanged, so `System`'s guarantees are `Counting`'s;
// the count is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A bank row costs at most this many live heap bytes. The two-map
/// layout (a row-id map plus a key-vector map, filled one row at a
/// time) took 224.6 by this count; the slab, inline keys and bulk-built
/// indexes take 138.2.
const BANK_CEILING: f64 = 160.0;

const BANK_ROWS: i64 = 100_000;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The live bytes `load` leaves behind.
fn growth(load: impl FnOnce()) -> isize {
    let before = live();
    load();
    live() - before
}

fn bank_row(i: i64) -> Vec<SqlValue> {
    vec![
        SqlValue::Int(i),
        SqlValue::Text(String::new()),
        SqlValue::Int(1_000),
    ]
}

const BANK: &str = "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)";

/// A table's rows, in the batches they are inserted in.
type Batches = Vec<Vec<Vec<SqlValue>>>;

/// The heap bytes of `batches`: their vectors and their rows' text.
fn heap_of(batches: &[Vec<Vec<SqlValue>>]) -> isize {
    let text = |v: &SqlValue| match v {
        SqlValue::Text(s) => s.capacity(),
        _ => 0,
    };
    let row = |r: &Vec<SqlValue>| {
        r.capacity() * size_of::<SqlValue>() + r.iter().map(text).sum::<usize>()
    };
    let batch = |b: &Vec<Vec<SqlValue>>| {
        b.capacity() * size_of::<Vec<SqlValue>>() + b.iter().map(row).sum::<usize>()
    };
    batches.iter().map(batch).sum::<usize>() as isize
}

/// A deterministic stand-in for the loader's random draws.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((self.0 >> 33) % n as u64) as i64
    }
}

/// The TPC-C tables the benchmark's `pbr_tpcc` loads, with their rows,
/// in the batches its loader inserts them in.
fn tpcc() -> Vec<(&'static str, &'static str, Batches)> {
    let (int, real) = (SqlValue::Int, SqlValue::Real);
    let text = |s: &str| SqlValue::from(s);
    let districts = 1..=10;
    let customers: Vec<_> = districts
        .clone()
        .map(|d| {
            (1..=300)
                .map(|c| {
                    vec![
                        int(1),
                        int(d),
                        int(c),
                        text(&format!("LAST{}", c % 100)),
                        text(&format!("FIRST{c}")),
                        text(if c % 10 == 0 { "BC" } else { "GC" }),
                        real(-10.0),
                        real(10.0),
                        int(1),
                        int(0),
                    ]
                })
                .collect()
        })
        .collect();
    let items = (1..=10_000)
        .map(|i| {
            vec![
                int(i),
                text(&format!("ITEM-{i}")),
                real(1.0 + (i % 100) as f64),
            ]
        })
        .collect();
    let stock = (1..=10_000)
        .map(|i| vec![int(1), int(i), int(10 + i % 91), int(0), int(0), int(0)])
        .collect();
    let mut rng = Lcg(1);
    let (mut orders, mut lines, mut new_orders) = (Vec::new(), Vec::new(), Vec::new());
    for d in districts {
        let (mut o_rows, mut l_rows, mut n_rows) = (Vec::new(), Vec::new(), Vec::new());
        for o in 1..=300 {
            let delivered = o <= 200;
            let ol_cnt = 5 + rng.below(11);
            let carrier = if delivered {
                int(1 + rng.below(10))
            } else {
                SqlValue::Null
            };
            o_rows.push(vec![
                int(1),
                int(d),
                int(o),
                int(1 + rng.below(300)),
                int(0),
                carrier,
            ]);
            o_rows.last_mut().unwrap().push(int(ol_cnt));
            if !delivered {
                n_rows.push(vec![int(1), int(d), int(o)]);
            }
            for n in 1..=ol_cnt {
                let at = if delivered { int(0) } else { SqlValue::Null };
                let amount = real(1.0 + rng.below(99) as f64);
                let item = int(1 + rng.below(10_000));
                l_rows.push(vec![
                    int(1),
                    int(d),
                    int(o),
                    int(n),
                    item,
                    int(5),
                    amount,
                    at,
                ]);
            }
        }
        orders.push(o_rows);
        lines.push(l_rows);
        new_orders.push(n_rows);
    }
    vec![
        (
            "customer",
            "CREATE TABLE customer (c_w_id INT, c_d_id INT, c_id INT, c_last TEXT, \
             c_first TEXT, c_credit TEXT, c_balance REAL, c_ytd_payment REAL, \
             c_payment_cnt INT, c_delivery_cnt INT, PRIMARY KEY (c_w_id, c_d_id, c_id))",
            customers,
        ),
        (
            "item",
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_name TEXT, i_price REAL)",
            vec![items],
        ),
        (
            "stock",
            "CREATE TABLE stock (s_w_id INT, s_i_id INT, s_quantity INT, s_ytd INT, \
             s_order_cnt INT, s_remote_cnt INT, PRIMARY KEY (s_w_id, s_i_id))",
            vec![stock],
        ),
        (
            "orders",
            "CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, \
             o_entry_d INT, o_carrier_id INT, o_ol_cnt INT, PRIMARY KEY (o_w_id, o_d_id, o_id))",
            orders,
        ),
        (
            "order_line",
            "CREATE TABLE order_line (ol_w_id INT, ol_d_id INT, ol_o_id INT, ol_number INT, \
             ol_i_id INT, ol_qty INT, ol_amount REAL, ol_delivery_d INT, \
             PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))",
            lines,
        ),
        (
            "new_order",
            "CREATE TABLE new_order (no_w_id INT, no_d_id INT, no_o_id INT, \
             PRIMARY KEY (no_w_id, no_d_id, no_o_id))",
            new_orders,
        ),
    ]
}

#[test]
fn a_stored_row_costs_what_the_layout_says() {
    let db = Database::new(EngineProfile::h2());
    db.execute(BANK).unwrap();
    let bank = growth(|| {
        db.insert_rows("accounts", (0..BANK_ROWS).map(bank_row))
            .unwrap();
    });
    let bank = bank as f64 / BANK_ROWS as f64;
    println!(
        "{:<28} {:>8} rows {:>7.1} B/row",
        "accounts (insert_rows)", BANK_ROWS, bank
    );

    let schema = db.snapshot().tables()[0].schema.clone();
    let mut table = Table::new(schema);
    let one_by_one = growth(|| {
        for i in 0..BANK_ROWS {
            table.insert(bank_row(i)).unwrap();
        }
    });
    let one_by_one = one_by_one as f64 / BANK_ROWS as f64;
    println!(
        "{:<28} {:>8} rows {:>7.1} B/row",
        "accounts (insert each)", BANK_ROWS, one_by_one
    );
    drop(table);

    for (name, ddl, batches) in tpcc() {
        db.execute(ddl).unwrap();
        if name == "orders" {
            db.execute("CREATE INDEX idx_orders_cust ON orders (o_w_id, o_d_id, o_c_id)")
                .unwrap();
        }
        let rows: usize = batches.iter().map(Vec::len).sum();
        // The rows handed over are freed or kept by the table: count
        // them out before the load.
        let given = heap_of(&batches);
        let grown = growth(|| {
            for batch in batches {
                db.insert_rows(name, batch).unwrap();
            }
        });
        let per_row = (grown + given) as f64 / rows as f64;
        println!("{name:<28} {rows:>8} rows {per_row:>7.1} B/row");
    }

    assert!(
        bank <= BANK_CEILING,
        "a bank row costs {bank:.1} B, over the {BANK_CEILING} B ceiling"
    );
}
