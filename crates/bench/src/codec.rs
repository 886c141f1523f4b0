//! Record codecs for the grid cell outputs.
//!
//! Every record type renders to JSON (`*_record_json`) and decodes back
//! (`*_record_from_json`). The serve daemon puts the renderings on the
//! wire, and the engine's sweep checkpoint ([`lockbind_engine::checkpoint`])
//! stores each completed cell's output as a JSON payload built from them.
//! Payloads are tagged one-key objects — `{"error":[…]}`,
//! `{"overhead":[…]}`, `{"impact":{…}}` or `{"sat":{…}}` — so a checkpoint
//! line says what it holds.
//!
//! Floats render in shortest round-trip form and parse back through
//! [`Json::as_f64`], so a decoded record is bit-identical to the encoded
//! one and a resumed sweep reproduces the uninterrupted run byte for byte.
//! A non-finite float renders as `null`, which decodes to `None`: the cell
//! re-runs instead of being misread.

use lockbind_hls::FuClass;
use lockbind_obs::json::Json;

use crate::headline_cells::{HeadlineOutput, ImpactRecord, SatRecord, SatScheme};
use crate::{ErrorRecord, OverheadRecord, SecurityAlgo};

fn fmt_class(class: FuClass) -> String {
    format!("{class:?}")
}

fn parse_class(text: &str) -> Option<FuClass> {
    match text {
        "Adder" => Some(FuClass::Adder),
        "Multiplier" => Some(FuClass::Multiplier),
        _ => None,
    }
}

fn parse_algo(text: &str) -> Option<SecurityAlgo> {
    [
        SecurityAlgo::ObfAware,
        SecurityAlgo::CoDesignHeuristic,
        SecurityAlgo::CoDesignOptimal,
    ]
    .into_iter()
    .find(|algo| algo.label() == text)
}

fn parse_scheme_label(text: &str) -> Option<&'static str> {
    SatScheme::ALL
        .into_iter()
        .map(SatScheme::label)
        .find(|label| *label == text)
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key)?.as_str()
}

fn u64_field(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key)?.as_u64()
}

fn usize_field(doc: &Json, key: &str) -> Option<usize> {
    usize::try_from(u64_field(doc, key)?).ok()
}

fn f64_field(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key)?.as_f64()
}

/// Encodes error-ratio records as separator text: records joined by the
/// ASCII record separator, fields by the unit separator, floats in `{:?}`
/// form. `perfbench`'s grid workload digests exactly these bytes.
pub fn encode_error_records(records: &[ErrorRecord]) -> String {
    records
        .iter()
        .map(|r| {
            format!(
                "{}\x1f{:?}\x1f{}\x1f{}\x1f{}\x1f{:?}\x1f{:?}\x1f{:?}\x1f{}",
                r.kernel,
                r.class,
                r.locked_fus,
                r.locked_inputs,
                r.algo.label(),
                r.vs_area,
                r.vs_power,
                r.mean_errors,
                r.samples
            )
        })
        .collect::<Vec<_>>()
        .join("\x1e")
}

/// Renders an [`ErrorRecord`] as a JSON object — the response body shape
/// the serve daemon puts on the wire and the checkpoint stores. Field
/// order is fixed; `class` is `FuClass`'s debug name and `algo` is
/// [`SecurityAlgo::label`], so wire responses, checkpoints, and figure
/// tables all agree on vocabulary.
pub fn error_record_json(r: &ErrorRecord) -> Json {
    Json::obj([
        ("kernel", Json::from(r.kernel.as_str())),
        ("class", Json::from(fmt_class(r.class))),
        ("locked_fus", Json::from(r.locked_fus)),
        ("locked_inputs", Json::from(r.locked_inputs)),
        ("algo", Json::from(r.algo.label())),
        ("vs_area", Json::from(r.vs_area)),
        ("vs_power", Json::from(r.vs_power)),
        ("mean_errors", Json::from(r.mean_errors)),
        ("samples", Json::from(r.samples)),
    ])
}

/// Decodes [`error_record_json`] output; `None` on any missing or
/// malformed field.
fn error_record_from_json(doc: &Json) -> Option<ErrorRecord> {
    Some(ErrorRecord {
        kernel: str_field(doc, "kernel")?.to_string(),
        class: parse_class(str_field(doc, "class")?)?,
        locked_fus: usize_field(doc, "locked_fus")?,
        locked_inputs: usize_field(doc, "locked_inputs")?,
        algo: parse_algo(str_field(doc, "algo")?)?,
        vs_area: f64_field(doc, "vs_area")?,
        vs_power: f64_field(doc, "vs_power")?,
        mean_errors: f64_field(doc, "mean_errors")?,
        samples: usize_field(doc, "samples")?,
    })
}

/// Renders an [`OverheadRecord`] (Fig. 6) as a JSON object.
fn overhead_record_json(r: &OverheadRecord) -> Json {
    Json::obj([
        ("kernel", Json::from(r.kernel.as_str())),
        ("algo", Json::from(r.algo.label())),
        ("register_increase", Json::from(r.register_increase)),
        ("switching_increase", Json::from(r.switching_increase)),
        ("area_registers", Json::from(r.area_registers)),
        ("power_switching", Json::from(r.power_switching)),
    ])
}

/// Decodes [`overhead_record_json`] output.
fn overhead_record_from_json(doc: &Json) -> Option<OverheadRecord> {
    Some(OverheadRecord {
        kernel: str_field(doc, "kernel")?.to_string(),
        algo: parse_algo(str_field(doc, "algo")?)?,
        register_increase: f64_field(doc, "register_increase")?,
        switching_increase: f64_field(doc, "switching_increase")?,
        area_registers: usize_field(doc, "area_registers")?,
        power_switching: f64_field(doc, "power_switching")?,
    })
}

/// Renders an [`ImpactRecord`] (locked-sim output) as a JSON object.
pub fn impact_record_json(r: &ImpactRecord) -> Json {
    Json::obj([
        ("kernel", Json::from(r.kernel.as_str())),
        ("frame_rate", Json::from(r.frame_rate)),
        ("frames_corrupted", Json::from(r.frames_corrupted)),
        ("frames_total", Json::from(r.frames_total)),
    ])
}

/// Decodes [`impact_record_json`] output.
fn impact_record_from_json(doc: &Json) -> Option<ImpactRecord> {
    Some(ImpactRecord {
        kernel: str_field(doc, "kernel")?.to_string(),
        frame_rate: f64_field(doc, "frame_rate")?,
        frames_corrupted: u64_field(doc, "frames_corrupted")?,
        frames_total: u64_field(doc, "frames_total")?,
    })
}

/// Renders a [`SatRecord`] (SAT-attack output) as a JSON object.
pub fn sat_record_json(r: &SatRecord) -> Json {
    Json::obj([
        ("scheme", Json::from(r.scheme)),
        ("key_bits", Json::from(r.key_bits)),
        ("iterations", Json::from(r.iterations)),
        ("success", Json::from(r.success)),
        ("conflicts", Json::from(r.conflicts)),
        ("propagations", Json::from(r.propagations)),
        ("gc_runs", Json::from(r.gc_runs)),
    ])
}

/// Decodes [`sat_record_json`] output.
fn sat_record_from_json(doc: &Json) -> Option<SatRecord> {
    Some(SatRecord {
        scheme: parse_scheme_label(str_field(doc, "scheme")?)?,
        key_bits: usize_field(doc, "key_bits")?,
        iterations: u64_field(doc, "iterations")?,
        success: doc.get("success")?.as_bool()?,
        conflicts: u64_field(doc, "conflicts")?,
        propagations: u64_field(doc, "propagations")?,
        gc_runs: u64_field(doc, "gc_runs")?,
    })
}

fn tagged(tag: &str, body: Json) -> Json {
    Json::obj([(tag, body)])
}

/// The `(tag, body)` of a one-key payload object.
fn untag(payload: &Json) -> Option<(&str, &Json)> {
    match payload {
        Json::Object(pairs) => match pairs.as_slice() {
            [(tag, body)] => Some((tag.as_str(), body)),
            _ => None,
        },
        _ => None,
    }
}

fn records_from_json<T>(body: &Json, decode: fn(&Json) -> Option<T>) -> Option<Vec<T>> {
    body.as_array()?.iter().map(decode).collect()
}

/// Encodes an error cell's records as the checkpoint payload
/// `{"error":[…]}`.
pub fn error_records_json(records: &[ErrorRecord]) -> Json {
    tagged("error", Json::arr(records.iter().map(error_record_json)))
}

/// Decodes [`error_records_json`] output.
pub(crate) fn error_records_from_json(payload: &Json) -> Option<Vec<ErrorRecord>> {
    match untag(payload)? {
        ("error", body) => records_from_json(body, error_record_from_json),
        _ => None,
    }
}

/// Encodes an overhead cell's records as the checkpoint payload
/// `{"overhead":[…]}`.
pub(crate) fn overhead_records_json(records: &[OverheadRecord]) -> Json {
    tagged(
        "overhead",
        Json::arr(records.iter().map(overhead_record_json)),
    )
}

/// Decodes [`overhead_records_json`] output.
pub(crate) fn overhead_records_from_json(payload: &Json) -> Option<Vec<OverheadRecord>> {
    match untag(payload)? {
        ("overhead", body) => records_from_json(body, overhead_record_from_json),
        _ => None,
    }
}

/// Encodes a combined-grid output as the checkpoint payload tagged with
/// its variant: `{"error":[…]}`, `{"impact":{…}}` or `{"sat":{…}}`.
pub(crate) fn headline_output_json(output: &HeadlineOutput) -> Json {
    match output {
        HeadlineOutput::Error(records) => error_records_json(records),
        HeadlineOutput::Impact(record) => tagged("impact", impact_record_json(record)),
        HeadlineOutput::Sat(record) => tagged("sat", sat_record_json(record)),
    }
}

/// Decodes [`headline_output_json`] output.
pub(crate) fn headline_output_from_json(payload: &Json) -> Option<HeadlineOutput> {
    match untag(payload)? {
        ("error", body) => {
            records_from_json(body, error_record_from_json).map(HeadlineOutput::Error)
        }
        ("impact", body) => impact_record_from_json(body).map(HeadlineOutput::Impact),
        ("sat", body) => sat_record_from_json(body).map(HeadlineOutput::Sat),
        _ => None,
    }
}

/// The tag of a checkpoint payload that decodes in full (`error`,
/// `overhead`, `impact` or `sat`); `None` for a malformed payload.
pub fn payload_kind(payload: &Json) -> Option<&'static str> {
    if overhead_records_from_json(payload).is_some() {
        return Some("overhead");
    }
    Some(match headline_output_from_json(payload)? {
        HeadlineOutput::Error(_) => "error",
        HeadlineOutput::Impact(_) => "impact",
        HeadlineOutput::Sat(_) => "sat",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockbind_obs::json::parse;
    use proptest::prelude::*;

    /// What the checkpoint does to a payload: render it, parse it back.
    fn through_text(payload: &Json) -> Json {
        parse(payload.render().as_bytes()).expect("rendered payloads parse")
    }

    fn error_record(vs_area: f64, vs_power: f64, mean_errors: f64) -> ErrorRecord {
        ErrorRecord {
            kernel: "fir".to_string(),
            class: FuClass::Adder,
            locked_fus: 2,
            locked_inputs: 3,
            algo: SecurityAlgo::ObfAware,
            vs_area,
            vs_power,
            mean_errors,
            samples: 40,
        }
    }

    fn sample_error_records() -> Vec<ErrorRecord> {
        vec![
            error_record(1.5000000000000002, 2.25, 0.1),
            ErrorRecord {
                kernel: "jdmerge1".to_string(),
                class: FuClass::Multiplier,
                locked_fus: 1,
                locked_inputs: 1,
                algo: SecurityAlgo::CoDesignOptimal,
                vs_area: f64::MAX,
                vs_power: 1e-308,
                mean_errors: 3.0,
                samples: 1,
            },
        ]
    }

    fn assert_bit_identical(decoded: &[ErrorRecord], records: &[ErrorRecord]) {
        assert_eq!(decoded.len(), records.len());
        for (d, r) in decoded.iter().zip(records) {
            assert_eq!(format!("{d:?}"), format!("{r:?}"));
            for (a, b) in [
                (d.vs_area, r.vs_area),
                (d.vs_power, r.vs_power),
                (d.mean_errors, r.mean_errors),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{b:?}");
            }
        }
    }

    #[test]
    fn error_records_round_trip_bit_exactly() {
        let records = sample_error_records();
        let decoded =
            error_records_from_json(&through_text(&error_records_json(&records))).expect("decodes");
        assert_bit_identical(&decoded, &records);
    }

    #[test]
    fn awkward_floats_round_trip_bit_exactly() {
        // -0.0 renders as `-0`; 3.0 and 2^60 render without a fraction and
        // parse back as unsigned integers; 5e-324 is the least subnormal.
        let records: Vec<ErrorRecord> = [-0.0, 3.0, (1u64 << 60) as f64, 5e-324, f64::MIN]
            .into_iter()
            .map(|v| error_record(v, -v, v))
            .collect();
        let payload = through_text(&error_records_json(&records));
        let decoded = error_records_from_json(&payload).expect("decodes");
        assert_bit_identical(&decoded, &records);
        assert!(payload.render().contains("\"vs_area\":3,"));
    }

    #[test]
    fn non_finite_fields_decode_to_none() {
        // A non-finite float renders as `null`; decoding must refuse it so
        // the cell re-runs instead of being misread.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let payload = through_text(&error_records_json(&[error_record(1.0, bad, 0.5)]));
            assert!(payload.render().contains("\"vs_power\":null"));
            assert!(error_records_from_json(&payload).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn empty_record_lists_round_trip() {
        assert!(
            error_records_from_json(&through_text(&error_records_json(&[])))
                .expect("empty list")
                .is_empty()
        );
        assert!(
            overhead_records_from_json(&through_text(&overhead_records_json(&[])))
                .expect("empty list")
                .is_empty()
        );
    }

    #[test]
    fn overhead_records_round_trip() {
        let records = vec![OverheadRecord {
            kernel: "motion2".to_string(),
            algo: SecurityAlgo::CoDesignHeuristic,
            register_increase: 0.07142857142857142,
            switching_increase: -0.003,
            area_registers: 14,
            power_switching: 2.75,
        }];
        let decoded = overhead_records_from_json(&through_text(&overhead_records_json(&records)))
            .expect("decodes");
        assert_eq!(format!("{decoded:?}"), format!("{records:?}"));
    }

    fn sample_outputs() -> [HeadlineOutput; 4] {
        [
            HeadlineOutput::Error(sample_error_records()),
            HeadlineOutput::Error(Vec::new()),
            HeadlineOutput::Impact(ImpactRecord {
                kernel: "fir".to_string(),
                frame_rate: 0.125,
                frames_corrupted: 5,
                frames_total: 40,
            }),
            HeadlineOutput::Sat(SatRecord {
                scheme: SatScheme::AntiSat.label(),
                key_bits: 6,
                iterations: 9,
                success: true,
                conflicts: 120,
                propagations: 4_903_114,
                gc_runs: 2,
            }),
        ]
    }

    #[test]
    fn headline_outputs_round_trip_all_variants() {
        for output in &sample_outputs() {
            let decoded = headline_output_from_json(&through_text(&headline_output_json(output)))
                .expect("decodes");
            assert_eq!(format!("{decoded:?}"), format!("{output:?}"));
        }
    }

    #[test]
    fn payload_kind_names_every_tag() {
        let kinds: Vec<_> = sample_outputs()
            .iter()
            .map(|o| payload_kind(&headline_output_json(o)))
            .collect();
        assert_eq!(
            kinds,
            [Some("error"), Some("error"), Some("impact"), Some("sat")]
        );
        assert_eq!(payload_kind(&overhead_records_json(&[])), Some("overhead"));
        assert_eq!(payload_kind(&Json::from("error")), None);
    }

    #[test]
    fn separator_encoding_is_pinned() {
        let records = sample_error_records();
        assert_eq!(
            encode_error_records(&records),
            "fir\x1fAdder\x1f2\x1f3\x1fobf-aware\x1f1.5000000000000002\x1f2.25\x1f0.1\x1f40\x1e\
             jdmerge1\x1fMultiplier\x1f1\x1f1\x1fcodesign-opt\x1f1.7976931348623157e308\
             \x1f1e-308\x1f3.0\x1f1"
        );
        assert_eq!(encode_error_records(&[]), "");
    }

    #[test]
    fn record_json_renderers_fix_field_order_and_labels() {
        let error = &sample_error_records()[0];
        assert_eq!(
            error_record_json(error).render(),
            "{\"kernel\":\"fir\",\"class\":\"Adder\",\"locked_fus\":2,\
             \"locked_inputs\":3,\"algo\":\"obf-aware\",\
             \"vs_area\":1.5000000000000002,\"vs_power\":2.25,\
             \"mean_errors\":0.1,\"samples\":40}"
        );
        let [_, _, HeadlineOutput::Impact(impact), HeadlineOutput::Sat(sat)] = sample_outputs()
        else {
            unreachable!("sample order is fixed");
        };
        assert_eq!(
            impact_record_json(&impact).render(),
            "{\"kernel\":\"fir\",\"frame_rate\":0.125,\
             \"frames_corrupted\":5,\"frames_total\":40}"
        );
        assert_eq!(
            sat_record_json(&sat).render(),
            "{\"scheme\":\"anti-sat\",\"key_bits\":6,\"iterations\":9,\
             \"success\":true,\"conflicts\":120,\"propagations\":4903114,\
             \"gc_runs\":2}"
        );
    }

    #[test]
    fn garbage_is_rejected_not_mangled() {
        let parsed = |text: &str| parse(text.as_bytes()).expect("valid JSON");
        assert!(error_records_from_json(&Json::from("not a record")).is_none());
        assert!(headline_output_from_json(&parsed(r#"{"mystery":[]}"#)).is_none());
        assert!(headline_output_from_json(&parsed(r#"{"error":[],"sat":{}}"#)).is_none());
        assert!(error_records_from_json(&parsed(r#"{"overhead":[]}"#)).is_none());
        assert!(sat_record_from_json(&parsed(
            r#"{"scheme":"rll","key_bits":"x","iterations":3,"success":true}"#
        ))
        .is_none());
        assert!(error_record_from_json(&parsed(r#"{"kernel":"fir","class":"Divider"}"#)).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn finite_float_fields_round_trip_bit_exactly(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            prop_assume!(v.is_finite());
            let record = error_record(v, -v, v);
            let decoded = error_records_from_json(&through_text(&error_records_json(&[record])))
                .expect("finite records decode");
            prop_assert_eq!(decoded[0].vs_area.to_bits(), bits);
            prop_assert_eq!(decoded[0].vs_power.to_bits(), (-v).to_bits());
            prop_assert_eq!(decoded[0].mean_errors.to_bits(), bits);
        }
    }
}
