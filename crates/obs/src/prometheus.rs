//! Prometheus text-exposition export of a registry [`Snapshot`].
//!
//! Renders the version-0.0.4 text format: a `# TYPE` comment per metric
//! family, then one sample per line. Every sample carries the base
//! labels (scheduler / dep-system); histograms expand into cumulative
//! `_bucket{le="..."}` series plus `_sum` and `_count`. [`validate`] is the consumer side: a
//! line-by-line parser the tests use to prove the dump is well-formed.

use crate::registry::{HistogramSnapshot, Labels, MetricValue, Snapshot};

fn push_label_escaped(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// `{k="v",...}` rendered label set, ending in an `le` label when one
/// is given (histogram buckets); empty string when there are no labels.
fn label_set(base: &Labels, le: Option<&str>) -> String {
    let labels: Vec<(&str, &str)> = base
        .iter()
        .map(|(k, v)| (*k, v.as_str()))
        .chain(le.map(|le| ("le", le)))
        .collect();
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_label_escaped(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

fn render_histogram(out: &mut String, name: &str, base: &Labels, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, &b) in h.buckets.iter().enumerate() {
        cum += b;
        if b == 0 && i != h.buckets.len() - 1 {
            // Keep the dump compact: only non-empty buckets plus +Inf.
            continue;
        }
        let le = if i == h.buckets.len() - 1 {
            "+Inf".to_string()
        } else {
            format!("{}", HistogramSnapshot::upper_bound(i))
        };
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            label_set(base, Some(&le))
        ));
    }
    out.push_str(&format!("{name}_sum{} {}\n", label_set(base, None), h.sum));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        label_set(base, None),
        h.count
    ));
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for e in &snap.entries {
        let ty = match e.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) | MetricValue::Max(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        out.push_str(&format!("# TYPE {} {ty}\n", e.name));
        match &e.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) | MetricValue::Max(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    e.name,
                    label_set(&snap.base_labels, None)
                ));
            }
            MetricValue::Histogram(h) => render_histogram(&mut out, e.name, &snap.base_labels, h),
        }
    }
    out
}

/// Line-by-line validation of a text-exposition dump. Returns the number
/// of sample lines, or a description of the first malformed line.
pub fn validate(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let err = |what: &str| Err(format!("line {}: {what}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let name = match parts.next() {
                        Some(n) => n,
                        None => return err("TYPE without metric name"),
                    };
                    if !valid_name(name) {
                        return err("bad metric name in TYPE");
                    }
                    match parts.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        _ => return err("bad metric type"),
                    }
                }
                Some("HELP") => {}
                _ => return err("unknown comment"),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(p) => p,
            None => return err("no value"),
        };
        if value.parse::<f64>().is_err() {
            return err("bad value");
        }
        let name = match name_labels.split_once('{') {
            Some((name, labels)) => {
                let labels = match labels.strip_suffix('}') {
                    Some(l) => l,
                    None => return err("unterminated label set"),
                };
                if !valid_labels(labels) {
                    return err("bad label set");
                }
                name
            }
            None => name_labels,
        };
        if !valid_name(name) {
            return err("bad metric name");
        }
        samples += 1;
    }
    Ok(samples)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `k="v",k="v"` with quote/backslash escapes inside values.
fn valid_labels(mut s: &str) -> bool {
    loop {
        let eq = match s.find('=') {
            Some(i) => i,
            None => return false,
        };
        let key = &s[..eq];
        if key.is_empty()
            || key.starts_with(|c: char| c.is_ascii_digit())
            || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return false;
        }
        s = &s[eq + 1..];
        if !s.starts_with('"') {
            return false;
        }
        s = &s[1..];
        // Scan to the closing unescaped quote.
        let mut close = None;
        let mut escaped = false;
        for (i, c) in s.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(i);
                break;
            }
        }
        let close = match close {
            Some(i) => i,
            None => return false,
        };
        s = &s[close + 1..];
        if s.is_empty() {
            return true;
        }
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::with_base(
            2,
            vec![
                ("scheduler", "Delegation".into()),
                ("deps", "WaitFree".into()),
            ],
        );
        reg.counter("nanotask_tasks_executed_total").add(0, 42);
        reg.counter("nanotask_tasks_freed_total").add(1, 9);
        reg.gauge("nanotask_live_tasks").set(1);
        let h = reg.histogram("nanotask_task_exec_ns");
        h.record(0, 100);
        h.record(1, 90_000);
        reg.snapshot()
    }

    #[test]
    fn renders_and_validates() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE nanotask_tasks_executed_total counter\n"));
        assert!(text.contains(
            "nanotask_tasks_executed_total{scheduler=\"Delegation\",deps=\"WaitFree\"} 42\n"
        ));
        assert!(text.contains(
            "nanotask_tasks_freed_total{scheduler=\"Delegation\",deps=\"WaitFree\"} 9\n"
        ));
        assert!(text.contains("nanotask_task_exec_ns_bucket"));
        assert!(text.contains("le=\"+Inf\"} 2\n"));
        assert!(text.contains("nanotask_task_exec_ns_sum"));
        let samples = validate(&text).expect("own output validates");
        // 2 counters + 1 gauge + hist(2 buckets + Inf + sum + count).
        assert_eq!(samples, 8);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = render(&sample_snapshot());
        // 100 lands in bucket 7 (le=127), 90_000 in bucket 17 (le=131071).
        assert!(text.contains("le=\"127\"} 1\n"));
        assert!(text.contains("le=\"131071\"} 2\n"));
    }

    #[test]
    fn validate_rejects_malformed_lines() {
        assert!(validate("no_value_here\n").is_err());
        assert!(validate("1bad_name 3\n").is_err());
        assert!(validate("name{unterminated=\"x\" 3\n").is_err());
        assert!(validate("name{k=\"v\"} notanumber\n").is_err());
        assert!(validate("# TYPE name nonsense\n").is_err());
        assert!(validate("name{k=v} 3\n").is_err());
        assert_eq!(validate("").unwrap(), 0);
        assert_eq!(validate("ok_metric 1\nok2{a=\"b\"} 2.5\n").unwrap(), 2);
    }

    #[test]
    fn empty_label_metric_renders_bare() {
        let reg = Registry::new(1);
        reg.counter("nanotask_bare_total").add(0, 1);
        let text = render(&reg.snapshot());
        assert!(text.contains("\nnanotask_bare_total 1\n"));
        assert_eq!(validate(&text).unwrap(), 1);
    }
}
