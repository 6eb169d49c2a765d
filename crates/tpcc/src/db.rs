//! The TPC-C database: tables, indexes and key encodings over the storage
//! engine.

use crate::error::TpccError;
use crate::schema::*;
use crate::Result;
use pdl_storage::{BTree, Database, HeapFile, Key, KeyBuf, PageRead, RecordId, StructRoot};

/// Row counts: the TPC-C cardinalities, scalable so the benchmark fits the
/// emulated chip (the paper runs a ~1 Gbyte database; see DESIGN.md §2 on
/// scaling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TpccScale {
    pub warehouses: u32,
    pub districts_per_warehouse: u32,
    pub customers_per_district: u32,
    pub items: u32,
    /// Initial orders per district (spec: one per customer).
    pub orders_per_district: u32,
}

impl TpccScale {
    /// The spec's cardinalities per warehouse.
    pub fn full(warehouses: u32) -> TpccScale {
        TpccScale {
            warehouses,
            districts_per_warehouse: 10,
            customers_per_district: 3_000,
            items: 100_000,
            orders_per_district: 3_000,
        }
    }

    /// A scaled-down database (~8 Mbytes per warehouse) for the default
    /// experiment profile.
    pub fn scaled(warehouses: u32) -> TpccScale {
        TpccScale {
            warehouses,
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 10_000,
            orders_per_district: 300,
        }
    }

    /// A minimal database for unit tests.
    pub fn tiny() -> TpccScale {
        TpccScale {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 30,
            items: 100,
            orders_per_district: 30,
        }
    }

    /// Rough estimate of the logical pages the loaded database occupies
    /// (used to size the chip; validated by tests).
    pub fn estimated_loaded_pages(&self, page_size: usize) -> u64 {
        let w = self.warehouses as u64;
        let d = w * self.districts_per_warehouse as u64;
        let c = d * self.customers_per_district as u64;
        let o = d * self.orders_per_district as u64;
        let i = self.items as u64;
        let s = w * i;
        // Record bytes (encoded sizes) + index entries (24 bytes each),
        // assuming ~70% page fill.
        let heap_bytes = w * 91
            + d * 100
            + c * 427
            + o * 56 / 2
            + o * 31
            + o * 10 * 59
            + i * 90
            + s * 310
            + o * 9 / 3;
        let index_entries = c * 2 + o * 2 + o / 3 + o * 10 + i + s + d + w;
        let bytes = heap_bytes + index_entries * 24;
        (bytes as f64 / (page_size as f64 * 0.7)).ceil() as u64
    }
}

/// Key encodings. Warehouse ids fit u16 at any realistic scale.
pub(crate) mod keys {
    use super::*;

    pub fn warehouse(w: u32) -> Key {
        KeyBuf::new().push_u16(w as u16).finish()
    }

    pub fn district(w: u32, d: u8) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u8(d).finish()
    }

    pub fn customer(w: u32, d: u8, c: u32) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u8(d).push_u32(c).finish()
    }

    /// Secondary index: (w, d, last-name-prefix) -> customer rid.
    pub fn customer_name(w: u32, d: u8, last: &str) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u8(d).push_str(last, 13).finish()
    }

    pub fn order(w: u32, d: u8, o: u32) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u8(d).push_u32(o).finish()
    }

    /// Secondary index: (w, d, c, o) -> order rid (ORDER-STATUS "last
    /// order by customer").
    pub fn order_customer(w: u32, d: u8, c: u32, o: u32) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u8(d).push_u32(c).push_u32(o).finish()
    }

    pub fn new_order(w: u32, d: u8, o: u32) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u8(d).push_u32(o).finish()
    }

    pub fn order_line(w: u32, d: u8, o: u32, number: u8) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u8(d).push_u32(o).push_u8(number).finish()
    }

    pub fn item(i: u32) -> Key {
        KeyBuf::new().push_u32(i).finish()
    }

    pub fn stock(w: u32, i: u32) -> Key {
        KeyBuf::new().push_u16(w as u16).push_u32(i).finish()
    }
}

/// The TPC-C database: nine heap files and their indexes over one
/// [`Database`].
pub struct TpccDb {
    pub db: Database,
    pub scale: TpccScale,
    pub warehouse: HeapFile,
    pub district: HeapFile,
    pub customer: HeapFile,
    pub history: HeapFile,
    pub new_order: HeapFile,
    pub order: HeapFile,
    pub order_line: HeapFile,
    pub item: HeapFile,
    pub stock: HeapFile,
    pub idx_warehouse: BTree,
    pub idx_district: BTree,
    pub idx_customer: BTree,
    pub idx_customer_name: BTree,
    pub idx_order: BTree,
    pub idx_order_customer: BTree,
    pub idx_new_order: BTree,
    pub idx_order_line: BTree,
    pub idx_item: BTree,
    pub idx_stock: BTree,
}

impl TpccDb {
    /// Create the (empty) table and index structures.
    pub fn create(db: Database, scale: TpccScale) -> Result<TpccDb> {
        TpccDb::build(db, scale, |db| Ok(BTree::create(db)?), |db| Ok(HeapFile::create(db)))
    }

    /// Re-open a TPC-C database at structure roots taken with
    /// [`TpccDb::roots`] — e.g. over a store recovered after a crash,
    /// which has no root log to rebuild them from.
    pub fn open(db: Database, scale: TpccScale, roots: Vec<StructRoot>) -> Result<TpccDb> {
        let (mut trees, mut heaps) = (Vec::new(), Vec::new());
        for root in roots {
            match root {
                StructRoot::BTree { root } => trees.push(root),
                StructRoot::Heap { pages } => heaps.push(pages),
            }
        }
        let (mut trees, mut heaps) = (trees.into_iter(), heaps.into_iter());
        let wrong_count = || TpccError::BadConfig("roots do not match the TPC-C schema".into());
        let t = TpccDb::build(
            db,
            scale,
            |db| trees.next().map(|root| BTree::attach(db, root)).ok_or_else(wrong_count),
            |db| heaps.next().map(|pages| HeapFile::attach(db, pages)).ok_or_else(wrong_count),
        )?;
        if trees.next().is_some() || heaps.next().is_some() {
            return Err(wrong_count());
        }
        Ok(t)
    }

    /// Every index's and table's committed root, in creation order: what
    /// [`TpccDb::open`] takes.
    pub fn roots(&self) -> Vec<StructRoot> {
        let db = &self.db;
        let indexes = [
            &self.idx_warehouse,
            &self.idx_district,
            &self.idx_customer,
            &self.idx_customer_name,
            &self.idx_order,
            &self.idx_order_customer,
            &self.idx_new_order,
            &self.idx_order_line,
            &self.idx_item,
            &self.idx_stock,
        ];
        let tables = [
            &self.warehouse,
            &self.district,
            &self.customer,
            &self.history,
            &self.new_order,
            &self.order,
            &self.order_line,
            &self.item,
            &self.stock,
        ];
        let indexes = indexes.map(|t| StructRoot::BTree { root: t.current_root(db) });
        let tables = tables.map(|h| StructRoot::Heap { pages: h.pages_in(db) });
        indexes.into_iter().chain(tables).collect()
    }

    /// The indexes, then the tables, each in [`TpccDb::roots`]' order.
    fn build(
        db: Database,
        scale: TpccScale,
        mut index: impl FnMut(&Database) -> Result<BTree>,
        mut table: impl FnMut(&Database) -> Result<HeapFile>,
    ) -> Result<TpccDb> {
        Ok(TpccDb {
            idx_warehouse: index(&db)?,
            idx_district: index(&db)?,
            idx_customer: index(&db)?,
            idx_customer_name: index(&db)?,
            idx_order: index(&db)?,
            idx_order_customer: index(&db)?,
            idx_new_order: index(&db)?,
            idx_order_line: index(&db)?,
            idx_item: index(&db)?,
            idx_stock: index(&db)?,
            warehouse: table(&db)?,
            district: table(&db)?,
            customer: table(&db)?,
            history: table(&db)?,
            new_order: table(&db)?,
            order: table(&db)?,
            order_line: table(&db)?,
            item: table(&db)?,
            stock: table(&db)?,
            db,
            scale,
        })
    }

    // ------------------------------------------------------------------
    // Typed row access used by the transactions. Row reads never mutate,
    // so they take `&self`; every reader also has a `*_at` variant over
    // any [`PageRead`], which is how the read-only transactions
    // (ORDER-STATUS, STOCK-LEVEL) run against a frozen read-view
    // snapshot instead of the live page images.
    // ------------------------------------------------------------------

    pub fn warehouse_row(&self, w: u32) -> Result<(RecordId, Warehouse)> {
        self.warehouse_row_at(&self.db, w)
    }

    pub fn warehouse_row_at(&self, s: &impl PageRead, w: u32) -> Result<(RecordId, Warehouse)> {
        let rid = self
            .idx_warehouse
            .get_at(s, &keys::warehouse(w))?
            .ok_or(TpccError::MissingRow(TableId::Warehouse))?;
        let rid = RecordId::from_u64(rid);
        let row = self.warehouse.get_at(s, rid, Warehouse::decode)?;
        Ok((rid, row))
    }

    pub fn district_row(&self, w: u32, d: u8) -> Result<(RecordId, District)> {
        self.district_row_at(&self.db, w, d)
    }

    pub fn district_row_at(
        &self,
        s: &impl PageRead,
        w: u32,
        d: u8,
    ) -> Result<(RecordId, District)> {
        let rid = self
            .idx_district
            .get_at(s, &keys::district(w, d))?
            .ok_or(TpccError::MissingRow(TableId::District))?;
        let rid = RecordId::from_u64(rid);
        let row = self.district.get_at(s, rid, District::decode)?;
        Ok((rid, row))
    }

    pub fn customer_row(&self, w: u32, d: u8, c: u32) -> Result<(RecordId, Customer)> {
        self.customer_row_at(&self.db, w, d, c)
    }

    pub fn customer_row_at(
        &self,
        s: &impl PageRead,
        w: u32,
        d: u8,
        c: u32,
    ) -> Result<(RecordId, Customer)> {
        let rid = self
            .idx_customer
            .get_at(s, &keys::customer(w, d, c))?
            .ok_or(TpccError::MissingRow(TableId::Customer))?;
        let rid = RecordId::from_u64(rid);
        let row = self.customer.get_at(s, rid, Customer::decode)?;
        Ok((rid, row))
    }

    /// Customers matching a last name, ordered by first name (clause
    /// 2.5.2.2: select the one at position ceil(n/2)).
    pub fn customers_by_name(
        &self,
        w: u32,
        d: u8,
        last: &str,
    ) -> Result<Vec<(RecordId, Customer)>> {
        self.customers_by_name_at(&self.db, w, d, last)
    }

    pub fn customers_by_name_at(
        &self,
        s: &impl PageRead,
        w: u32,
        d: u8,
        last: &str,
    ) -> Result<Vec<(RecordId, Customer)>> {
        let key = keys::customer_name(w, d, last);
        let mut rids = Vec::new();
        self.idx_customer_name.range_at(s, &key, &key, |_, v| {
            rids.push(RecordId::from_u64(v));
            true
        })?;
        let mut rows = Vec::with_capacity(rids.len());
        for rid in rids {
            let row = self.customer.get_at(s, rid, Customer::decode)?;
            rows.push((rid, row));
        }
        rows.sort_by(|a, b| a.1.first.cmp(&b.1.first));
        Ok(rows)
    }

    pub fn item_row(&self, i: u32) -> Result<Option<Item>> {
        match self.idx_item.get(&self.db, &keys::item(i))? {
            Some(rid) => {
                let row = self.item.get(&self.db, RecordId::from_u64(rid), Item::decode)?;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    pub fn stock_row(&self, w: u32, i: u32) -> Result<(RecordId, Stock)> {
        self.stock_row_at(&self.db, w, i)
    }

    pub fn stock_row_at(&self, s: &impl PageRead, w: u32, i: u32) -> Result<(RecordId, Stock)> {
        let rid = self
            .idx_stock
            .get_at(s, &keys::stock(w, i))?
            .ok_or(TpccError::MissingRow(TableId::Stock))?;
        let rid = RecordId::from_u64(rid);
        let row = self.stock.get_at(s, rid, Stock::decode)?;
        Ok((rid, row))
    }

    /// Flash I/O time consumed so far (simulated µs).
    pub fn io_time_us(&self) -> u64 {
        self.db.io_stats().total().total_us()
    }
}
