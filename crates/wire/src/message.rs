//! JMS-style messages: headers, selector-visible properties, and typed
//! bodies.

use crate::value::Value;
use simcore::SimTime;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A property or map-body field name. Names fixed at compile time (the
/// paper's 16 payload fields, the `id` property) are borrowed `&'static
/// str`s and cost nothing to build or clone; names built at run time or
/// decoded off the wire are owned. Both order, compare and encode by
/// their text, so the choice never shows on the wire.
pub type Key = Cow<'static, str>;

/// Globally unique message id within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

/// JMS delivery mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Fire-and-forget; the broker never persists (the paper's setting).
    #[default]
    NonPersistent,
    /// Broker persists before acknowledging the producer.
    Persistent,
}

/// Standard JMS headers (the subset the study exercises).
#[derive(Debug, Clone, PartialEq)]
pub struct Headers {
    /// Unique id, assigned by the sending session.
    pub message_id: MessageId,
    /// Destination (topic/queue) name.
    pub destination: String,
    /// Send timestamp (set by the publishing client).
    pub timestamp: SimTime,
    /// Priority 0-9 (4 = default; the paper used non-priority settings).
    pub priority: u8,
    /// Delivery mode.
    pub delivery_mode: DeliveryMode,
    /// Correlation id, free-form.
    pub correlation_id: Option<u64>,
    /// Causal trace id (`simtrace`). Out-of-band instrumentation: it is
    /// carried through the middleware alongside the message but is NOT
    /// part of the wire encoding, so enabling tracing cannot perturb
    /// the calibrated transfer timings ([`Headers::wire_size`] and the
    /// codec ignore it; decode always yields `None`).
    pub trace: Option<simtrace::TraceId>,
    /// Virtual publish instant (`simslo` freshness plane). Out-of-band
    /// exactly like `trace`: rides with the message so the subscriber
    /// side can compute delivery age, contributes zero wire bytes, and
    /// is `None` whenever the SLO plane is off.
    pub published_at: Option<SimTime>,
}

impl Headers {
    /// Headers with defaults matching the paper's test configuration.
    pub fn new(message_id: MessageId, destination: impl Into<String>, timestamp: SimTime) -> Self {
        Headers {
            message_id,
            destination: destination.into(),
            timestamp,
            priority: 4,
            delivery_mode: DeliveryMode::NonPersistent,
            correlation_id: None,
            trace: None,
            published_at: None,
        }
    }

    /// Encoded size of the headers on the wire. The `trace` id and the
    /// `published_at` stamp are deliberately excluded: observation must
    /// be free when off and must not change message timing when on.
    pub fn wire_size(&self) -> usize {
        // id + ts + prio + mode + corr flag/value + destination string.
        8 + 8 + 1 + 1 + 9 + 4 + self.destination.len()
    }
}

/// Message body variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// `MapMessage`: ordered name→value pairs (BTreeMap for deterministic
    /// iteration and wire layout).
    Map(BTreeMap<Key, Value>),
    /// `TextMessage`.
    Text(String),
    /// `BytesMessage` (length is what matters for the wire model; content
    /// is real bytes so the codec round-trips).
    Bytes(Vec<u8>),
}

impl Body {
    /// Encoded size of the body.
    pub fn wire_size(&self) -> usize {
        match self {
            Body::Map(m) => {
                4 + m
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.wire_size())
                    .sum::<usize>()
            }
            Body::Text(s) => 4 + s.len(),
            Body::Bytes(b) => 4 + b.len(),
        }
    }
}

/// A complete JMS-style message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Standard headers.
    pub headers: Headers,
    /// Application properties, visible to selectors.
    pub properties: BTreeMap<Key, Value>,
    /// Body.
    pub body: Body,
}

impl Message {
    /// New map message.
    pub fn map<K: Into<Key>>(
        headers: Headers,
        entries: impl IntoIterator<Item = (K, Value)>,
    ) -> Self {
        Message {
            headers,
            properties: BTreeMap::new(),
            body: Body::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect()),
        }
    }

    /// New text message.
    pub fn text(headers: Headers, text: impl Into<String>) -> Self {
        Message {
            headers,
            properties: BTreeMap::new(),
            body: Body::Text(text.into()),
        }
    }

    /// Set a selector-visible property (builder style).
    pub fn with_property(mut self, name: impl Into<Key>, v: impl Into<Value>) -> Self {
        self.properties.insert(name.into(), v.into());
        self
    }

    /// Look up a property (selector evaluation).
    pub fn property(&self, name: &str) -> Option<&Value> {
        self.properties.get(name)
    }

    /// Total encoded size: headers + properties + body tag + body.
    pub fn wire_size(&self) -> usize {
        self.headers.wire_size()
            + 4
            + self
                .properties
                .iter()
                .map(|(k, v)| 4 + k.len() + v.wire_size())
                .sum::<usize>()
            + 1
            + self.body.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::map(
            Headers::new(MessageId(1), "power.monitor", SimTime::from_secs(1)),
            [
                ("watts".to_string(), Value::Double(42.5)),
                ("gen".to_string(), Value::Int(7)),
            ],
        )
        .with_property("id", 7i32)
    }

    #[test]
    fn property_roundtrip() {
        let m = msg();
        assert_eq!(m.property("id"), Some(&Value::Int(7)));
        assert_eq!(m.property("nope"), None);
    }

    #[test]
    fn wire_size_is_sum_of_parts() {
        let m = msg();
        let h = m.headers.wire_size();
        let b = m.body.wire_size();
        assert_eq!(
            m.wire_size(),
            h + 4 + (4 + 2 + Value::Int(7).wire_size()) + 1 + b
        );
        // Headers include the destination name.
        assert!(h > "power.monitor".len());
    }

    #[test]
    fn body_sizes() {
        assert_eq!(Body::Text("abc".into()).wire_size(), 7);
        assert_eq!(Body::Bytes(vec![0; 10]).wire_size(), 14);
        let map: BTreeMap<Key, Value> = [(Key::from("k"), Value::Int(1))].into_iter().collect();
        assert_eq!(Body::Map(map).wire_size(), 4 + 4 + 1 + 5);
    }

    #[test]
    fn defaults_match_paper_settings() {
        let h = Headers::new(MessageId(9), "t", SimTime::ZERO);
        assert_eq!(h.delivery_mode, DeliveryMode::NonPersistent);
        assert_eq!(h.priority, 4);
    }
}
