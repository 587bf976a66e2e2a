// The pre-DAG reference executor: the invariant-9 oracle.
//
// Ver's product materializer is the row-index DAG in `ver_engine::dag`. This
// file keeps the straightforward executor it replaced -- clone the base
// table, hash-join full intermediates, project, then deduplicate -- so tests
// can check the DAG against an independent implementation: same rows in the
// same order, same schema, same chained `a⋈b⋈c` name, same provenance.
//
// It is test-support code only. Test targets mount it with
// `#[path = ".../support/reference.rs"] mod reference;`, and the engine's own
// unit-test build mounts it at the crate root with `include!` so the
// modules below keep their `exec::tests::...`-style paths. That is why the
// file is a flat list of items with no inner attributes or `//!` docs.

/// PJ-plan execution: chain hash joins, project, deduplicate.
///
/// The pre-DAG MATERIALIZE-VIEWS step of Algorithm 5. The executor keeps a
/// map from source table to its column offset inside the growing
/// intermediate, so join keys and projections written against original
/// [`ColumnRef`](ver_common::ids::ColumnRef)s resolve at any point of the chain.
pub mod exec {
    use super::dedup::dedup_rows;
    use super::join::hash_join;
    use super::project::project;
    use ver_common::error::{Result, VerError};
    use ver_common::fxhash::FxHashMap;
    use ver_common::ids::{TableId, ViewId};
    use ver_engine::plan::{JoinStep, PjPlan};
    use ver_engine::view::{Provenance, View};
    use ver_store::catalog::TableCatalog;
    use ver_store::table::Table;

    /// Execute `plan` against `catalog`, producing a deduplicated view.
    ///
    /// The returned view has `ViewId::default()`; the search stage assigns the
    /// real id. `join_score` is carried into the provenance.
    pub fn execute_plan(catalog: &TableCatalog, plan: &PjPlan, join_score: f64) -> Result<View> {
        plan.validate()?;

        let base = catalog.table(plan.base)?;
        let mut acc: Table = base.clone();
        // table id → offset of its first column in `acc`.
        let mut offsets: FxHashMap<TableId, usize> = FxHashMap::default();
        offsets.insert(plan.base, 0);

        for step in &plan.joins {
            let left_offset = *offsets.get(&step.left.table).ok_or_else(|| {
                VerError::JoinError(format!(
                    "table {} missing from intermediate",
                    step.left.table
                ))
            })?;
            let left_ordinal = left_offset + step.left.ordinal as usize;
            let right_table = catalog.table(step.right.table)?;
            let width_before = acc.column_count();
            acc = hash_join(&acc, left_ordinal, right_table, step.right.ordinal as usize)?;
            offsets.insert(step.right.table, width_before);
        }

        let ordinals: Vec<usize> = plan
            .projection
            .iter()
            .map(|p| {
                offsets
                    .get(&p.table)
                    .map(|off| off + p.ordinal as usize)
                    .ok_or_else(|| {
                        VerError::JoinError(format!("projected table {} not in plan", p.table))
                    })
            })
            .collect::<Result<_>>()?;

        let projected = project(&acc, &ordinals)?;
        let deduped = dedup_rows(&projected);

        Ok(View::new(
            ViewId::default(),
            deduped,
            Provenance {
                join_edges: plan.joins.iter().map(|j| (j.left, j.right)).collect(),
                source_tables: plan.tables(),
                projection: plan.projection.clone(),
                join_score,
            },
        ))
    }

    /// The plan a materialized view was built from, rebuilt from its
    /// provenance: base table first, join edges in execution order, and
    /// the projection.
    pub fn plan_of(provenance: &Provenance) -> PjPlan {
        PjPlan {
            base: provenance.source_tables[0],
            joins: provenance
                .join_edges
                .iter()
                .map(|&(left, right)| JoinStep { left, right })
                .collect(),
            projection: provenance.projection.clone(),
        }
    }

    /// Re-execute `view`'s plan (rebuilt with [`plan_of`]) through the
    /// reference executor, carrying over the view's id so the result can be
    /// compared with `View::same_contents`.
    pub fn reexecute(catalog: &TableCatalog, view: &View) -> Result<View> {
        let mut oracle = execute_plan(
            catalog,
            &plan_of(&view.provenance),
            view.provenance.join_score,
        )?;
        oracle.id = view.id;
        Ok(oracle)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ver_common::ids::ColumnRef;
        use ver_common::value::Value;
        use ver_store::table::TableBuilder;

        fn cref(t: u32, o: u16) -> ColumnRef {
            ColumnRef {
                table: TableId(t),
                ordinal: o,
            }
        }

        /// airports(iata, state) ⋈ states(name, pop) ⋈ regions(state, region)
        fn catalog() -> TableCatalog {
            let mut cat = TableCatalog::new();
            let mut b = TableBuilder::new("airports", &["iata", "state"]);
            for (i, s) in [("IND", "Indiana"), ("ATL", "Georgia"), ("SAV", "Georgia")] {
                b.push_row(vec![i.into(), s.into()]).unwrap();
            }
            cat.add_table(b.build()).unwrap();

            let mut b = TableBuilder::new("states", &["name", "pop"]);
            for (s, p) in [("Indiana", 6_800_000i64), ("Georgia", 10_700_000)] {
                b.push_row(vec![s.into(), Value::Int(p)]).unwrap();
            }
            cat.add_table(b.build()).unwrap();

            let mut b = TableBuilder::new("regions", &["state", "region"]);
            for (s, r) in [("Indiana", "Midwest"), ("Georgia", "South")] {
                b.push_row(vec![s.into(), r.into()]).unwrap();
            }
            cat.add_table(b.build()).unwrap();
            cat
        }

        #[test]
        fn single_table_projection() {
            let cat = catalog();
            let plan = PjPlan::single(TableId(0), vec![cref(0, 0)]);
            let v = execute_plan(&cat, &plan, 1.0).unwrap();
            assert_eq!(v.row_count(), 3);
            assert_eq!(v.attribute_names(), vec!["iata"]);
        }

        #[test]
        fn two_hop_chain_joins_and_projects() {
            let cat = catalog();
            let plan = PjPlan {
                base: TableId(0),
                joins: vec![
                    JoinStep {
                        left: cref(0, 1),
                        right: cref(1, 0),
                    },
                    JoinStep {
                        left: cref(1, 0),
                        right: cref(2, 0),
                    },
                ],
                projection: vec![cref(0, 0), cref(1, 1), cref(2, 1)],
            };
            let v = execute_plan(&cat, &plan, 0.5).unwrap();
            assert_eq!(v.row_count(), 3);
            assert_eq!(v.attribute_names(), vec!["iata", "pop", "region"]);
            assert_eq!(v.provenance.hops(), 2);
            assert_eq!(v.provenance.join_score, 0.5);
            // Georgia appears twice (ATL, SAV) with the same pop/region.
            let regions: Vec<String> = (0..v.row_count())
                .map(|r| v.table.cell(r, 2).unwrap().to_string())
                .collect();
            assert_eq!(regions.iter().filter(|r| *r == "South").count(), 2);
        }

        #[test]
        fn projection_dedups_row_sets() {
            // Project only state-level attributes: duplicates collapse.
            let cat = catalog();
            let plan = PjPlan {
                base: TableId(0),
                joins: vec![JoinStep {
                    left: cref(0, 1),
                    right: cref(1, 0),
                }],
                projection: vec![cref(1, 0), cref(1, 1)],
            };
            let v = execute_plan(&cat, &plan, 1.0).unwrap();
            assert_eq!(
                v.row_count(),
                2,
                "ATL and SAV rows collapse after projection"
            );
        }

        #[test]
        fn star_plan_joins_both_arms_onto_base() {
            let cat = catalog();
            let plan = PjPlan {
                base: TableId(0),
                joins: vec![
                    JoinStep {
                        left: cref(0, 1),
                        right: cref(1, 0),
                    },
                    JoinStep {
                        left: cref(0, 1),
                        right: cref(2, 0),
                    },
                ],
                projection: vec![cref(0, 0), cref(2, 1)],
            };
            let v = execute_plan(&cat, &plan, 1.0).unwrap();
            assert_eq!(v.row_count(), 3);
        }

        #[test]
        fn invalid_plan_is_rejected_before_execution() {
            let cat = catalog();
            let plan = PjPlan::single(TableId(0), vec![]);
            assert!(execute_plan(&cat, &plan, 1.0).is_err());
        }

        #[test]
        fn missing_table_errors() {
            let cat = catalog();
            let plan = PjPlan::single(TableId(42), vec![cref(42, 0)]);
            assert!(execute_plan(&cat, &plan, 1.0).is_err());
        }
    }
}

/// Hash equi-join between two tables.
///
/// Builds a hash index over the smaller input's key column and probes with
/// the larger (classic build/probe), then gathers output columns
/// column-major to avoid per-row `Vec` allocations. Null keys never match
/// (SQL semantics) — in pathless collections nulls are pervasive and joining
/// on them would manufacture meaningless paths.
pub mod join {
    use ver_common::error::{Result, VerError};
    use ver_common::fxhash::FxHashMap;
    use ver_common::value::Value;
    use ver_store::column::Column;
    use ver_store::schema::TableSchema;
    use ver_store::table::Table;

    /// Inner equi-join of `left` and `right` on `left_key` / `right_key`
    /// (column ordinals). Output schema = left columns followed by right
    /// columns; output name is `left⋈right`.
    pub fn hash_join(
        left: &Table,
        left_key: usize,
        right: &Table,
        right_key: usize,
    ) -> Result<Table> {
        let lcol = left.column(left_key).ok_or_else(|| {
            VerError::JoinError(format!("left key ordinal {left_key} out of range"))
        })?;
        let rcol = right.column(right_key).ok_or_else(|| {
            VerError::JoinError(format!("right key ordinal {right_key} out of range"))
        })?;

        // Build on the smaller side, probe with the larger.
        let (matches_lr, swapped) = if left.row_count() <= right.row_count() {
            (probe(lcol, rcol), false)
        } else {
            (probe(rcol, lcol), true)
        };

        // Split the match list into two flat row-index arrays once, instead of
        // re-iterating and re-mapping the tuple vector for every gathered
        // column — gathering then reads a contiguous `&[u32]` per side.
        let n = matches_lr.len();
        let (mut lrows, mut rrows) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (b, p) in matches_lr {
            let (l, r) = if swapped { (p, b) } else { (b, p) };
            lrows.push(l);
            rrows.push(r);
        }

        let mut columns = Vec::with_capacity(left.column_count() + right.column_count());
        for col in left.columns() {
            columns.push(gather(col, &lrows));
        }
        for col in right.columns() {
            columns.push(gather(col, &rrows));
        }

        let mut metas = left.schema.columns.clone();
        metas.extend(right.schema.columns.iter().cloned());
        let name = format!("{}⋈{}", left.name(), right.name());
        Table::new(TableSchema::new(name, metas), columns)
    }

    /// Build a hash index over `build` values, probe with `probe_col`.
    /// Returns (build_row, probe_row) pairs.
    fn probe(build: &Column, probe_col: &Column) -> Vec<(u32, u32)> {
        let mut index: FxHashMap<&Value, Vec<u32>> = FxHashMap::default();
        for (i, v) in build.values().iter().enumerate() {
            if !v.is_null() {
                index.entry(v).or_default().push(i as u32);
            }
        }
        let mut out = Vec::new();
        for (j, v) in probe_col.values().iter().enumerate() {
            if v.is_null() {
                continue;
            }
            if let Some(rows) = index.get(v) {
                for &i in rows {
                    out.push((i, j as u32));
                }
            }
        }
        out
    }

    /// Gather `col[indices]` into a new column.
    fn gather(col: &Column, indices: &[u32]) -> Column {
        let values = col.values();
        indices
            .iter()
            .map(|&i| values[i as usize].clone())
            .collect::<Column>()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ver_store::table::TableBuilder;

        fn airports() -> Table {
            let mut b = TableBuilder::new("airports", &["iata", "state"]);
            for (i, s) in [("IND", "Indiana"), ("ATL", "Georgia"), ("ORD", "Illinois")] {
                b.push_row(vec![i.into(), s.into()]).unwrap();
            }
            b.build()
        }

        fn states() -> Table {
            let mut b = TableBuilder::new("states", &["name", "pop"]);
            for (s, p) in [
                ("Indiana", 6_800_000i64),
                ("Georgia", 10_700_000),
                ("Texas", 29_000_000),
            ] {
                b.push_row(vec![s.into(), Value::Int(p)]).unwrap();
            }
            b.build()
        }

        #[test]
        fn inner_join_matches_equal_keys() {
            let j = hash_join(&airports(), 1, &states(), 0).unwrap();
            assert_eq!(j.row_count(), 2); // ORD/Illinois and Texas unmatched
            assert_eq!(j.column_count(), 4);
            let row_states: Vec<String> = (0..j.row_count())
                .map(|r| j.cell(r, 1).unwrap().to_string())
                .collect();
            assert!(row_states.contains(&"Indiana".to_string()));
            assert!(row_states.contains(&"Georgia".to_string()));
        }

        #[test]
        fn join_name_and_schema_concatenate() {
            let j = hash_join(&airports(), 1, &states(), 0).unwrap();
            assert_eq!(j.name(), "airports⋈states");
            assert_eq!(j.schema.columns[0].display_name(0), "iata");
            assert_eq!(j.schema.columns[3].display_name(3), "pop");
        }

        #[test]
        fn null_keys_never_match() {
            let mut b = TableBuilder::new("l", &["k"]);
            b.push_row(vec![Value::Null]).unwrap();
            b.push_row(vec![Value::Int(1)]).unwrap();
            let l = b.build();
            let mut b = TableBuilder::new("r", &["k"]);
            b.push_row(vec![Value::Null]).unwrap();
            b.push_row(vec![Value::Int(1)]).unwrap();
            let r = b.build();
            let j = hash_join(&l, 0, &r, 0).unwrap();
            assert_eq!(j.row_count(), 1);
        }

        #[test]
        fn many_to_many_produces_cross_product_of_matches() {
            let mut b = TableBuilder::new("l", &["k", "x"]);
            b.push_row(vec![Value::Int(1), "a".into()]).unwrap();
            b.push_row(vec![Value::Int(1), "b".into()]).unwrap();
            let l = b.build();
            let mut b = TableBuilder::new("r", &["k", "y"]);
            b.push_row(vec![Value::Int(1), "p".into()]).unwrap();
            b.push_row(vec![Value::Int(1), "q".into()]).unwrap();
            b.push_row(vec![Value::Int(2), "z".into()]).unwrap();
            let r = b.build();
            let j = hash_join(&l, 0, &r, 0).unwrap();
            assert_eq!(j.row_count(), 4);
        }

        #[test]
        fn swapped_build_side_gives_same_result_set() {
            // right smaller than left → build side swaps internally.
            let big = states();
            let mut b = TableBuilder::new("small", &["name"]);
            b.push_row(vec!["Georgia".into()]).unwrap();
            let small = b.build();
            let j1 = hash_join(&big, 0, &small, 0).unwrap();
            assert_eq!(j1.row_count(), 1);
            assert_eq!(j1.cell(0, 0), Some(&Value::text("Georgia")));
            assert_eq!(j1.cell(0, 2), Some(&Value::text("Georgia")));
        }

        #[test]
        fn bad_ordinals_error() {
            assert!(hash_join(&airports(), 9, &states(), 0).is_err());
            assert!(hash_join(&airports(), 0, &states(), 9).is_err());
        }

        #[test]
        fn empty_inputs_yield_empty_output() {
            let empty = TableBuilder::new("e", &["k"]).build();
            let j = hash_join(&empty, 0, &states(), 0).unwrap();
            assert_eq!(j.row_count(), 0);
            assert_eq!(j.column_count(), 3);
        }

        #[test]
        fn typed_keys_do_not_cross_match() {
            // Int(1) must not join Text("1").
            let mut b = TableBuilder::new("l", &["k"]);
            b.push_row(vec![Value::Int(1)]).unwrap();
            let l = b.build();
            let mut b = TableBuilder::new("r", &["k"]);
            b.push_row(vec![Value::text("1")]).unwrap();
            let r = b.build();
            assert_eq!(hash_join(&l, 0, &r, 0).unwrap().row_count(), 0);
        }
    }
}

/// Column projection.
pub mod project {
    use ver_common::error::{Result, VerError};
    use ver_store::schema::TableSchema;
    use ver_store::table::Table;

    /// Project `table` onto the given column ordinals (in the requested order;
    /// repeats allowed). The output table is named after the input.
    pub fn project(table: &Table, ordinals: &[usize]) -> Result<Table> {
        let mut metas = Vec::with_capacity(ordinals.len());
        let mut columns = Vec::with_capacity(ordinals.len());
        for &o in ordinals {
            let col = table.column(o).ok_or_else(|| {
                VerError::InvalidQuery(format!(
                    "projection ordinal {o} out of range for '{}' (arity {})",
                    table.name(),
                    table.column_count()
                ))
            })?;
            metas.push(table.schema.columns[o].clone());
            columns.push(col.clone());
        }
        Table::new(TableSchema::new(table.name().to_string(), metas), columns)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ver_common::value::Value;
        use ver_store::table::TableBuilder;

        fn t3() -> Table {
            let mut b = TableBuilder::new("t", &["a", "b", "c"]);
            b.push_row(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
                .unwrap();
            b.push_row(vec![Value::Int(4), Value::Int(5), Value::Int(6)])
                .unwrap();
            b.build()
        }

        #[test]
        fn selects_and_reorders() {
            let p = project(&t3(), &[2, 0]).unwrap();
            assert_eq!(p.column_count(), 2);
            assert_eq!(p.schema.columns[0].display_name(0), "c");
            assert_eq!(p.cell(0, 0), Some(&Value::Int(3)));
            assert_eq!(p.cell(1, 1), Some(&Value::Int(4)));
        }

        #[test]
        fn duplicate_ordinals_allowed() {
            let p = project(&t3(), &[1, 1]).unwrap();
            assert_eq!(p.column_count(), 2);
            assert_eq!(p.cell(0, 0), p.cell(0, 1));
        }

        #[test]
        fn out_of_range_errors() {
            assert!(project(&t3(), &[7]).is_err());
        }

        #[test]
        fn empty_projection_gives_zero_columns() {
            let p = project(&t3(), &[]).unwrap();
            assert_eq!(p.column_count(), 0);
            assert_eq!(p.row_count(), 0);
        }
    }
}

/// Set-semantics row deduplication.
///
/// Candidate PJ-views are row *sets*: Definitions 5–9 of the paper compare
/// views by their row sets, so the materializer deduplicates after
/// projection. Rows are grouped by 64-bit row hash and verified by value
/// equality inside each bucket, so hash collisions cannot merge distinct
/// rows.
pub mod dedup {
    use ver_common::fxhash::FxHashMap;
    use ver_common::value::Value;
    use ver_engine::rowhash::hash_table_row;
    use ver_store::column::Column;
    use ver_store::table::Table;

    /// Indices of the first occurrence of each distinct row, in row order.
    pub fn distinct_row_indices(table: &Table) -> Vec<usize> {
        let mut buckets: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        let mut keep = Vec::new();
        'rows: for r in 0..table.row_count() {
            let h = hash_table_row(table, r);
            let bucket = buckets.entry(h).or_default();
            for &prev in bucket.iter() {
                if rows_equal(table, prev, r) {
                    continue 'rows;
                }
            }
            bucket.push(r);
            keep.push(r);
        }
        keep
    }

    fn rows_equal(table: &Table, a: usize, b: usize) -> bool {
        table.columns().iter().all(|c| c.get(a) == c.get(b))
    }

    /// Remove duplicate rows, keeping first occurrences (stable).
    pub fn dedup_rows(table: &Table) -> Table {
        let keep = distinct_row_indices(table);
        if keep.len() == table.row_count() {
            return table.clone();
        }
        let columns: Vec<Column> = table
            .columns()
            .iter()
            .map(|c| {
                keep.iter()
                    .map(|&r| c.get(r).cloned().unwrap_or(Value::Null))
                    .collect::<Column>()
            })
            .collect();
        Table::new(table.schema.clone(), columns).expect("dedup preserves rectangularity")
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ver_store::table::TableBuilder;

        fn dup_table() -> Table {
            let mut b = TableBuilder::new("t", &["a", "b"]);
            b.push_row(vec![Value::Int(1), "x".into()]).unwrap();
            b.push_row(vec![Value::Int(2), "y".into()]).unwrap();
            b.push_row(vec![Value::Int(1), "x".into()]).unwrap();
            b.push_row(vec![Value::Int(2), "z".into()]).unwrap();
            b.build()
        }

        #[test]
        fn removes_exact_duplicates_only() {
            let d = dedup_rows(&dup_table());
            assert_eq!(d.row_count(), 3);
            // Stable: first occurrences in original order.
            assert_eq!(d.cell(0, 0), Some(&Value::Int(1)));
            assert_eq!(d.cell(1, 1), Some(&Value::text("y")));
            assert_eq!(d.cell(2, 1), Some(&Value::text("z")));
        }

        #[test]
        fn no_duplicates_is_identity() {
            let mut b = TableBuilder::new("t", &["a"]);
            b.push_row(vec![Value::Int(1)]).unwrap();
            b.push_row(vec![Value::Int(2)]).unwrap();
            let t = b.build();
            let d = dedup_rows(&t);
            assert_eq!(d.row_count(), 2);
            assert_eq!(d, t);
        }

        #[test]
        fn null_rows_deduplicate() {
            let mut b = TableBuilder::new("t", &["a"]);
            b.push_row(vec![Value::Null]).unwrap();
            b.push_row(vec![Value::Null]).unwrap();
            let d = dedup_rows(&b.build());
            assert_eq!(d.row_count(), 1);
        }

        #[test]
        fn distinct_indices_are_sorted_first_occurrences() {
            assert_eq!(distinct_row_indices(&dup_table()), vec![0, 1, 3]);
        }

        #[test]
        fn empty_table_stays_empty() {
            let t = TableBuilder::new("t", &["a"]).build();
            assert_eq!(dedup_rows(&t).row_count(), 0);
        }
    }
}
