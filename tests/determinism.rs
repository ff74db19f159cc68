//! Determinism suite: the parallel execution layer must be invisible in the
//! output. `explain` under `ExecPolicy::Serial` and `ExecPolicy::Threads(4)`
//! must produce bit-identical predicates, ranking, and confidences on
//! arbitrary data, and `explain_batch` must return results in case order.
//! `explain` and `detect` must also equal the chains of public stage
//! kernels that perfbench's stage-by-stage replicas compose.

use std::sync::OnceLock;

use dbsherlock::prelude::*;
use proptest::prelude::*;

/// A three-attribute dataset with a level shift of pseudo-random magnitude
/// in a pseudo-random window. The deterministic "wiggle" keeps values
/// distinct without needing an RNG inside the property.
fn dataset_from(base: f64, jump: f64, shift_at: usize, seedish: u64) -> (Dataset, Region) {
    let schema = Schema::from_attrs([
        AttributeMeta::numeric("shifty"),
        AttributeMeta::numeric("drifty"),
        AttributeMeta::numeric("steady"),
    ])
    .unwrap();
    let mut d = Dataset::new(schema);
    let shift = shift_at..(shift_at + 20);
    for i in 0..100usize {
        let wiggle = (((i as u64).wrapping_mul(37).wrapping_add(seedish)) % 23) as f64 / 23.0;
        let shifty = if shift.contains(&i) { base * jump } else { base } + wiggle;
        let drifty = base + i as f64 * 0.01 + wiggle * 0.5;
        let steady = 42.0 + wiggle;
        d.push_row(i as f64, &[Value::Num(shifty), Value::Num(drifty), Value::Num(steady)])
            .unwrap();
    }
    (d, Region::from_indices(shift))
}

/// An engine with enough stored models for ranking to matter, at the given
/// execution policy.
fn engine(exec: ExecPolicy, d: &Dataset, abnormal: &Region) -> Sherlock {
    let params = SherlockParams::builder().exec(exec).build().unwrap();
    let mut sherlock = Sherlock::new(params);
    let explanation = sherlock.explain(d, abnormal, None);
    sherlock.feedback("true cause", &explanation.predicates);
    sherlock.feedback("same predicates, later name", &explanation.predicates);
    sherlock.feedback("also tied", &explanation.predicates);
    sherlock
}

/// Everything observable about an explanation, bit-exact (`to_bits`, so
/// `-0.0` vs `0.0` or any ULP drift would be caught): each predicate's
/// attribute, thresholds, separation power and normalized difference, and
/// the confidence of every cause, shown and hidden alike.
fn observe(e: &Explanation) -> Vec<String> {
    let predicates = e.predicates.iter().map(|g| {
        let op = match &g.predicate.op {
            PredicateOp::Lt(x) => format!("< {:#x}", x.to_bits()),
            PredicateOp::Gt(x) => format!("> {:#x}", x.to_bits()),
            PredicateOp::Between(lo, hi) => {
                format!("in ({:#x}, {:#x})", lo.to_bits(), hi.to_bits())
            }
            PredicateOp::InSet(labels) => format!("in {labels:?}"),
        };
        let (sp, d) = (g.separation_power.to_bits(), g.normalized_diff.to_bits());
        format!("{} {op} sp={sp:#x} d={d:#x}", g.predicate.attr)
    });
    let ranked = |tag: &str, causes: &[RankedCause]| -> Vec<String> {
        causes.iter().map(|c| format!("{tag} {} {:#x}", c.cause, c.confidence.to_bits())).collect()
    };
    predicates.chain(ranked("shown", &e.causes)).chain(ranked("all", &e.all_causes)).collect()
}

/// The standard TPC-C-like corpus (ten Table 1 classes × eleven variants),
/// with one causal model per class learned from variant 0 and pruned by
/// the MySQL/Linux domain knowledge, as perfbench's `corpus` workload sets
/// itself up. Built once per test binary.
struct Corpus {
    cases: Vec<(Dataset, Region)>,
    models: ModelRepository,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        // The experiment harness's corpus seed.
        const SEED: u64 = 20160626;
        let params = SherlockParams::default().with_exec(ExecPolicy::Serial);
        let domain = DomainKnowledge::mysql_linux();
        let mut cases = Vec::new();
        let mut models = ModelRepository::new();
        for kind in AnomalyKind::ALL {
            for variant in 0..dbsherlock::simulator::VARIATIONS.len() {
                let labeled = dbsherlock::simulator::standard_scenario(
                    Benchmark::TpccLike,
                    kind,
                    variant,
                    SEED,
                )
                .run();
                let abnormal = labeled.abnormal_region();
                if variant == 0 {
                    let normal = labeled.normal_region();
                    let raw = generate_predicates(&labeled.data, &abnormal, &normal, &params);
                    let predicates = domain.prune(&labeled.data, raw, &params);
                    models.add(CausalModel::from_feedback(kind.name(), &predicates));
                }
                cases.push((labeled.data, abnormal));
            }
        }
        Corpus { cases, models }
    })
}

/// Mixed-kind dataset for the columnar/scalar parity properties: a clean
/// shifting attribute, a NaN-salted noisy attribute, and a categorical
/// attribute that leans "bad" inside the shift window (so numeric,
/// non-finite, and dictionary code paths are all on the diffed path).
fn mixed_dataset_from(
    base: f64,
    jump: f64,
    shift_at: usize,
    seedish: u64,
    nan_every: usize,
) -> (Dataset, Region) {
    let schema = Schema::from_attrs([
        AttributeMeta::numeric("shifty"),
        AttributeMeta::numeric("noisy"),
        AttributeMeta::categorical("state"),
    ])
    .unwrap();
    let mut d = Dataset::new(schema);
    let shift = shift_at..(shift_at + 20);
    for i in 0..100usize {
        let wiggle = (((i as u64).wrapping_mul(37).wrapping_add(seedish)) % 23) as f64 / 23.0;
        let shifty = if shift.contains(&i) { base * jump } else { base } + wiggle;
        let noisy = if i % nan_every == 0 { f64::NAN } else { base + wiggle * 3.0 };
        let label = if shift.contains(&i) && i % 4 != 0 { "bad" } else { "ok" };
        let state = d.intern(2, label).unwrap();
        d.push_row(i as f64, &[Value::Num(shifty), Value::Num(noisy), state]).unwrap();
    }
    (d, Region::from_indices(shift))
}

/// Like [`dataset_from`], but the schema carries the in-band chaos trigger
/// [`dbsherlock::core::chaos::PANIC_ATTR`], so scoring any causal model
/// against the dataset panics inside the real rank stage — poisoning the
/// whole case.
fn poisoned_dataset_from(base: f64, jump: f64, shift_at: usize, seedish: u64) -> Dataset {
    let schema = Schema::from_attrs([
        AttributeMeta::numeric("shifty"),
        AttributeMeta::numeric(dbsherlock::core::chaos::PANIC_ATTR),
    ])
    .unwrap();
    let mut d = Dataset::new(schema);
    let shift = shift_at..(shift_at + 20);
    for i in 0..100usize {
        let wiggle = (((i as u64).wrapping_mul(37).wrapping_add(seedish)) % 23) as f64 / 23.0;
        let shifty = if shift.contains(&i) { base * jump } else { base } + wiggle;
        d.push_row(i as f64, &[Value::Num(shifty), Value::Num(1.0)]).unwrap();
    }
    d
}

proptest! {
    /// ISSUE 4 acceptance: a panicking case in `explain_batch` returns a
    /// per-slot error while all other cases produce bit-identical results
    /// to a clean serial run — for an arbitrary poison pattern.
    #[test]
    fn poisoned_cases_are_isolated_and_neighbours_stay_bit_identical(
        base in 1.0_f64..100.0,
        jump in 2.0_f64..10.0,
        seedish in 0u64..1000,
        poison_mask in 1u8..=255,
    ) {
        let poisoned_at = |i: usize| poison_mask & (1 << i) != 0;
        let built: Vec<(Dataset, Region)> = (0..8)
            .map(|i| {
                let (clean, region) = dataset_from(base, jump, 15 + 8 * i, seedish + i as u64);
                if poisoned_at(i) {
                    (poisoned_dataset_from(base, jump, 15 + 8 * i, seedish + i as u64), region)
                } else {
                    (clean, region)
                }
            })
            .collect();
        let cases: Vec<Case<'_>> = built.iter().map(|(d, r)| Case::new(d, r)).collect();

        // Both engines trained on the same clean dataset -> identical models.
        let (train_d, train_r) = dataset_from(base, jump, 40, seedish);
        let threaded = engine(ExecPolicy::Threads(4), &train_d, &train_r);
        let serial = engine(ExecPolicy::Serial, &train_d, &train_r);

        // The chaos panics are caught per slot; keep the default hook from
        // spamming stderr while they fire. `quiet_panics` serialises the
        // hook swap against other tests on parallel threads.
        let batch = dbsherlock::core::chaos::quiet_panics(|| threaded.explain_batch(&cases));

        for (i, result) in batch.iter().enumerate() {
            if poisoned_at(i) {
                prop_assert!(
                    matches!(result, Err(SherlockError::TaskPanicked { stage: "rank", .. })),
                    "case {}: expected TaskPanicked, got {:?}", i, result
                );
            } else {
                let (d, r) = &built[i];
                let reference = serial.try_explain(d, r, None).unwrap();
                let got = result.as_ref().unwrap();
                prop_assert_eq!(observe(got), observe(&reference), "case {}", i);
            }
        }
    }

    /// Serial and 4-thread explains are bit-identical on random data.
    #[test]
    fn explain_is_identical_across_policies(
        base in 1.0_f64..100.0,
        jump in 2.0_f64..10.0,
        shift_at in 10usize..70,
        seedish in 0u64..1000,
    ) {
        let (d, abnormal) = dataset_from(base, jump, shift_at, seedish);
        let serial = engine(ExecPolicy::Serial, &d, &abnormal);
        let threaded = engine(ExecPolicy::Threads(4), &d, &abnormal);
        let a = serial.explain(&d, &abnormal, None);
        let b = threaded.explain(&d, &abnormal, None);
        prop_assert_eq!(observe(&a), observe(&b));
    }

    /// ISSUE 8 acceptance: the columnar kernels are bit-identical to the
    /// retained row-wise scalar shim — on random mixed-kind data with
    /// NaN-riddled columns, categorical columns, and regions that clip —
    /// at both `Serial` and `Threads(4)`.
    #[test]
    fn columnar_path_is_bit_identical_to_scalar_shim(
        base in 1.0_f64..100.0,
        jump in 2.0_f64..10.0,
        shift_at in 5usize..78,
        seedish in 0u64..1000,
        nan_every in 2usize..13,
        overhang in 0usize..40,
    ) {
        let (d, abnormal) = mixed_dataset_from(base, jump, shift_at, seedish, nan_every);
        // An abnormal region reaching past the dataset must clip the same
        // way on both paths.
        let abnormal = abnormal.union(&Region::from_range(100..100 + overhang));

        for exec in [ExecPolicy::Serial, ExecPolicy::Threads(4)] {
            let sherlock = engine(exec, &d, &abnormal);
            let columnar = sherlock.try_explain(&d, &abnormal, None).unwrap();
            let scalar = sherlock.explain_scalar(&d, &abnormal, None).unwrap();
            prop_assert_eq!(observe(&columnar), observe(&scalar), "exec {:?}", exec);
        }

        // Same at the generation layer, without the façade.
        let normal = abnormal.clip(100).complement(100);
        let params = SherlockParams::default();
        let columnar_preds =
            dbsherlock::core::generate_predicates(&d, &abnormal, &normal, &params);
        let scalar_preds =
            dbsherlock::core::scalar::generate_predicates(&d, &abnormal, &normal, &params);
        prop_assert_eq!(columnar_preds, scalar_preds);
    }

    /// The engine's detection equals the public-kernel chain on random
    /// data: level shifts of random size and place over random noise, with
    /// NaN cells and constant attributes mixed in.
    #[test]
    fn detect_equals_the_public_kernel_chain_on_random_data(
        n_rows in 3usize..150,
        shifts in prop::collection::vec((0usize..150, 5usize..60, -5.0_f64..5.0), 1..5),
        noise in prop::collection::vec((0u8..40, 0.0_f64..1.0), 600),
    ) {
        let schema = Schema::from_attrs(
            (0..shifts.len()).map(|a| AttributeMeta::numeric(format!("a{a}"))),
        )
        .unwrap();
        let mut d = Dataset::new(schema);
        for row in 0..n_rows {
            let values: Vec<Value> = shifts
                .iter()
                .enumerate()
                .map(|(a, &(at, len, jump))| {
                    let (pick, wiggle) = noise[(row * 7 + a * 131) % noise.len()];
                    let level = if (at..at + len).contains(&row) { jump } else { 0.0 };
                    Value::Num(match pick {
                        0 => f64::NAN,
                        1 if a == 0 => 3.0,
                        _ => level + wiggle * 0.2,
                    })
                })
                .collect();
            d.push_row(row as f64, &values).unwrap();
        }
        let params = SherlockParams::default();
        let engine = dbsherlock::core::detect_anomaly(&d, &params);
        prop_assert_eq!(engine, detect_by_public_kernels(&d, &params));
    }

    /// `try_explain` equals the public-kernel chain on random mixed-kind
    /// data (NaN cells, a categorical attribute) under both policies.
    #[test]
    fn explain_equals_the_public_kernel_chain_on_random_data(
        base in 1.0_f64..100.0,
        jump in 0.2_f64..10.0,
        shift_at in 0usize..80,
        seedish in 0u64..1000,
        nan_every in 2usize..12,
    ) {
        let (d, abnormal) = mixed_dataset_from(base, jump, shift_at, seedish, nan_every);
        for exec in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
            let sherlock = engine(exec, &d, &abnormal);
            let engine = sherlock.try_explain(&d, &abnormal, None).unwrap();
            let chain = explain_by_public_kernels(
                &d,
                &abnormal,
                &DomainKnowledge::default(),
                sherlock.repository(),
                sherlock.params(),
            );
            prop_assert_eq!(observe(&engine), observe(&chain));
        }
    }

    /// Automatic detection is policy-independent too (potential power and
    /// the pairwise distances run on the pool).
    #[test]
    fn detect_is_identical_across_policies(
        base in 1.0_f64..100.0,
        jump in 3.0_f64..10.0,
        seedish in 0u64..1000,
    ) {
        let (d, _) = dataset_from(base, jump, 40, seedish);
        let serial = Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Serial));
        let threaded = Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Threads(4)));
        let a = serial.detect(&d);
        let b = threaded.detect(&d);
        prop_assert_eq!(a, b);
    }
}

/// §7 detection spelled out through the public kernels, in the order the
/// engine runs them: `normalize_slice` → `potential_power` → attribute
/// selection → `rows_from_columns` → `kdist_of` per point → the ε rule →
/// `dbscan` → clusters under the anomaly fraction. The engine computes the
/// same thing through one shared distance matrix; this chain recomputes
/// every distance per call, so a disagreement means the two paths differ.
fn detect_by_public_kernels(
    d: &Dataset,
    params: &SherlockParams,
) -> Option<dbsherlock::core::Detection> {
    use dbsherlock::cluster::{dbscan, kdist_of, rows_from_columns, Label};
    use dbsherlock::telemetry::stats;
    let mut selected = Vec::new();
    for attr_id in d.schema().ids_of_kind(AttributeKind::Numeric) {
        let normalized = stats::normalize_slice(d.numeric(attr_id)?);
        if dbsherlock::core::potential_power(&normalized, params.tau()) > params.pp_t() {
            selected.push((attr_id, normalized));
        }
    }
    if selected.is_empty() {
        return None;
    }
    let columns: Vec<&[f64]> = selected.iter().map(|(_, col)| col.as_slice()).collect();
    let points = rows_from_columns(&columns);
    if points.len() < params.min_pts() {
        return None;
    }
    let lk: Vec<f64> = (0..points.len()).map(|i| kdist_of(&points, i, params.min_pts())).collect();
    let max_lk = lk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max_lk <= 0.0 || !max_lk.is_finite() {
        return None;
    }
    let eps = (max_lk / 4.0).max(2.0 * stats::quantile(&lk, 0.99));
    let clustering = dbscan(&points, eps, params.min_pts());
    let max_cluster = (params.max_anomaly_fraction() * points.len() as f64) as usize;
    let sizes = clustering.sizes();
    let rows: Vec<usize> = clustering
        .labels
        .iter()
        .enumerate()
        .filter(|(_, label)| matches!(label, Label::Cluster(id) if sizes[*id] < max_cluster))
        .map(|(row, _)| row)
        .collect();
    if rows.is_empty() || rows.len() >= points.len() {
        return None;
    }
    Some(dbsherlock::core::Detection {
        region: Region::from_indices(rows),
        selected_attrs: selected.into_iter().map(|(id, _)| id).collect(),
    })
}

/// The engine's detection equals the public-kernel chain on windows of
/// simulated telemetry: one 400-second run per Table 1 class with a
/// 30-second anomaly, in 192-row windows (`sherlockd`'s default detection
/// window) sliding across the anomaly, under both execution policies.
#[test]
fn detect_equals_the_public_kernel_chain_on_corpus_windows() {
    let mut detections = 0;
    for (k, &kind) in AnomalyKind::ALL.iter().enumerate() {
        let scenario = Scenario::new(WorkloadConfig::tpcc_default(), 400, 2016 + k as u64)
            .with_injection(Injection::new(kind, 200, 30));
        let data = scenario.run().data;
        for start in [100, 140, 180] {
            let window = &data.select(&Region::from_range(start..start + 192)).unwrap();
            let chain = detect_by_public_kernels(window, &SherlockParams::default());
            for exec in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
                let params = SherlockParams::default().with_exec(exec);
                assert_eq!(dbsherlock::core::detect_anomaly(window, &params), chain, "{kind:?}");
            }
            detections += usize::from(chain.is_some());
        }
    }
    assert!(detections >= 10, "only {detections} windows had a detection to compare");
}

#[test]
fn scalar_and_columnar_agree_on_degenerate_regions() {
    let (d, abnormal) = mixed_dataset_from(10.0, 5.0, 30, 7, 5);
    let sherlock = engine(ExecPolicy::Serial, &d, &abnormal);
    // Empty abnormal region: both paths refuse identically.
    let empty = Region::new();
    assert!(matches!(
        sherlock.try_explain(&d, &empty, None),
        Err(SherlockError::EmptyRegion { what: "abnormal", .. })
    ));
    assert!(matches!(
        sherlock.explain_scalar(&d, &empty, None),
        Err(SherlockError::EmptyRegion { what: "abnormal", .. })
    ));
    // Abnormal covering every row: the implicit normal complement is empty
    // on both paths.
    let everything = Region::from_range(0..100);
    assert!(matches!(
        sherlock.try_explain(&d, &everything, None),
        Err(SherlockError::EmptyRegion { what: "normal", .. })
    ));
    assert!(matches!(
        sherlock.explain_scalar(&d, &everything, None),
        Err(SherlockError::EmptyRegion { what: "normal", .. })
    ));
    // At the generation layer an empty region yields no predicates, columnar
    // and scalar alike.
    let params = SherlockParams::default();
    assert!(dbsherlock::core::generate_predicates(&d, &empty, &everything, &params).is_empty());
    assert!(
        dbsherlock::core::scalar::generate_predicates(&d, &empty, &everything, &params).is_empty()
    );
}

#[test]
fn explain_batch_preserves_input_order() {
    // Distinguishable cases: each dataset shifts at a different row, so the
    // result at index `i` is attributable to the case at index `i`.
    let built: Vec<(Dataset, Region)> =
        (0..8).map(|i| dataset_from(10.0, 5.0, 15 + 8 * i, i as u64)).collect();
    let cases: Vec<Case<'_>> = built.iter().map(|(d, r)| Case::new(d, r)).collect();

    let sherlock = Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Threads(4)));
    let batch = sherlock.explain_batch(&cases);
    assert_eq!(batch.len(), cases.len());
    for ((d, r), result) in built.iter().zip(&batch) {
        let expected = sherlock.try_explain(d, r, None).unwrap();
        let got = result.as_ref().unwrap();
        assert_eq!(observe(got), observe(&expected));
    }
}

#[test]
fn explain_batch_equals_serial_loop_bit_for_bit() {
    let built: Vec<(Dataset, Region)> =
        (0..5).map(|i| dataset_from(20.0, 4.0, 20 + 10 * i, 99 + i as u64)).collect();
    let cases: Vec<Case<'_>> = built.iter().map(|(d, r)| Case::new(d, r)).collect();

    let serial = engine(ExecPolicy::Serial, &built[0].0, &built[0].1);
    let threaded = engine(ExecPolicy::Threads(4), &built[0].0, &built[0].1);

    let looped: Vec<_> = cases
        .iter()
        .map(|c| serial.try_explain(c.dataset, c.abnormal, c.normal).unwrap())
        .collect();
    let batched = threaded.explain_batch(&cases);
    for (a, b) in looped.iter().zip(&batched) {
        assert_eq!(observe(a), observe(b.as_ref().unwrap()));
    }

    // The 110-case corpus against the ten Table 1 models, under domain
    // pruning: a threaded batch equals a serial loop on every case.
    let corpus = corpus();
    let engine = |exec: ExecPolicy| {
        let params = SherlockParams::default().with_exec(exec);
        let mut sherlock =
            Sherlock::new(params).with_domain_knowledge(DomainKnowledge::mysql_linux());
        *sherlock.repository_mut() = corpus.models.clone();
        sherlock
    };
    let (serial, threaded) = (engine(ExecPolicy::Serial), engine(ExecPolicy::Threads(4)));
    let cases: Vec<Case<'_>> = corpus.cases.iter().map(|(d, r)| Case::new(d, r)).collect();
    let batched = threaded.explain_batch(&cases);
    assert_eq!(batched.len(), cases.len());
    for ((d, r), batch) in corpus.cases.iter().zip(&batched) {
        let looped = serial.try_explain(d, r, None).unwrap();
        assert_eq!(observe(&looped), observe(batch.as_ref().unwrap()));
    }
}

/// Algorithm 1, §5 pruning and §6 ranking spelled out through the public
/// stage kernels, in the reference order that perfbench's replica also
/// composes: snapshot → `from_numeric_range` / `from_dictionary` →
/// `label_partitions_view` → `filter_partitions` → `fill_gaps_view` →
/// `normalized_mean_difference_view` → θ gate → `extract_numeric` /
/// `extract_categorical_view` → `separation_power_view` → min-SP gate →
/// `DomainKnowledge::prune` → `try_rank` → λ filter. `Sherlock::try_explain`
/// reaches the same result with less work: `labelled_space` labels and
/// takes the mean difference in one pass per region, θ gates before filter
/// and fill, and ranking scores the spaces generation built, so this chain
/// checks the engine against kernels it no longer runs in this order.
fn explain_by_public_kernels(
    d: &Dataset,
    abnormal: &Region,
    domain: &DomainKnowledge,
    repository: &ModelRepository,
    params: &SherlockParams,
) -> Explanation {
    use dbsherlock::core::extract::{
        extract_categorical_view, extract_numeric, normalized_mean_difference_view,
    };
    use dbsherlock::core::fill::fill_gaps_view;
    use dbsherlock::core::filter::filter_partitions;
    use dbsherlock::core::label::label_partitions_view;
    use dbsherlock::core::separation::separation_power_view;
    use dbsherlock::core::{ArmedBudget, PartitionSpace};

    let normal = &abnormal.complement(d.n_rows());
    let snapshot = d.snapshot();
    let attribute = |attr_id: usize, attr: &AttributeMeta| -> Option<GeneratedPredicate> {
        let view = snapshot.column(attr_id);
        let space = match attr.kind {
            AttributeKind::Numeric => PartitionSpace::from_numeric_range(
                snapshot.numeric_range(attr_id),
                params.n_partitions(),
            )?,
            AttributeKind::Categorical => PartitionSpace::from_dictionary(view.categorical()?.1)?,
        };
        let labels = label_partitions_view(view, &space, abnormal, normal);
        let (predicate, normalized_diff) = match attr.kind {
            AttributeKind::Numeric => {
                let values = view.numeric()?;
                let filtered = filter_partitions(&labels);
                let filled = fill_gaps_view(&filtered, params.delta(), values, &space, normal);
                let range = snapshot.numeric_range(attr_id)?;
                let diff = normalized_mean_difference_view(values, range, abnormal, normal)?;
                if diff <= params.theta() {
                    return None;
                }
                (extract_numeric(&attr.name, &space, &filled)?, diff)
            }
            AttributeKind::Categorical => {
                let dict = view.categorical()?.1;
                (extract_categorical_view(&attr.name, dict, &labels)?, 1.0)
            }
        };
        let separation_power = separation_power_view(&predicate, view, abnormal, normal);
        (separation_power >= params.min_separation_power()).then_some(GeneratedPredicate {
            predicate,
            separation_power,
            normalized_diff,
        })
    };
    let raw: Vec<GeneratedPredicate> =
        d.schema().iter().filter_map(|(attr_id, attr)| attribute(attr_id, attr)).collect();
    let predicates = domain.prune(d, raw, params);
    let all_causes =
        repository.try_rank(d, abnormal, normal, params, &ArmedBudget::unlimited()).unwrap();
    let causes = all_causes.iter().filter(|c| c.confidence >= params.lambda()).cloned().collect();
    Explanation { predicates, causes, all_causes, interventions: Vec::new() }
}

/// `try_explain` equals the public-kernel chain on every corpus case, with
/// the Table 1 models and domain pruning, under both execution policies.
#[test]
fn explain_equals_the_public_kernel_chain_on_the_corpus() {
    let corpus = corpus();
    let domain = DomainKnowledge::mysql_linux();
    let mut explained = 0;
    for exec in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
        let params = SherlockParams::default().with_exec(exec);
        let mut sherlock = Sherlock::new(params.clone()).with_domain_knowledge(domain.clone());
        *sherlock.repository_mut() = corpus.models.clone();
        for (i, (d, abnormal)) in corpus.cases.iter().enumerate() {
            let engine = sherlock.try_explain(d, abnormal, None).unwrap();
            let chain = explain_by_public_kernels(d, abnormal, &domain, &corpus.models, &params);
            assert_eq!(observe(&engine), observe(&chain), "case {i}, {exec}");
            explained += usize::from(!engine.predicates.is_empty() && !engine.causes.is_empty());
        }
    }
    assert!(explained >= 200, "only {explained} cases had predicates and causes to compare");
}
