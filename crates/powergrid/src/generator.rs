//! Simulated power generators: telemetry state with realistic dynamics
//! and the paper's exact payload shapes.
//!
//! Narada tests: "Two integer, five float, two long, three double and
//! four string values were packaged in a JMS MapMessage".
//! R-GMA tests: "four integer, eight double and four char (length 20)
//! values, which were wrapped in an SQL statement".

use simcore::{SimRng, SimTime};
use wire::{Headers, Key, Message, MessageId, Value};

/// Operating state of one small renewable generator.
#[derive(Debug, Clone)]
pub struct GeneratorState {
    /// Fleet-unique id (the paper's selector filters on `id < 10000`).
    pub id: u32,
    /// Power output, kW (random walk around the rating).
    pub power_kw: f64,
    /// Rated output, kW.
    pub rating_kw: f64,
    /// Grid voltage at the point of connection, V.
    pub voltage_v: f64,
    /// Frequency, Hz.
    pub frequency_hz: f64,
    /// Cumulative energy, kWh.
    pub energy_kwh: f64,
    /// Messages produced so far.
    pub seq: u64,
    /// On-line flag.
    pub online: bool,
}

impl GeneratorState {
    /// New generator with a rating drawn from a realistic small-generator
    /// range (5–2000 kW).
    pub fn new(id: u32, rng: &mut SimRng) -> Self {
        let rating = 5.0 + rng.f64() * 1995.0;
        GeneratorState {
            id,
            power_kw: rating * (0.3 + 0.5 * rng.f64()),
            rating_kw: rating,
            voltage_v: 230.0,
            frequency_hz: 50.0,
            energy_kwh: 0.0,
            seq: 0,
            online: true,
        }
    }

    /// Advance the telemetry by one reporting period.
    pub fn step(&mut self, rng: &mut SimRng, period_secs: f64) {
        // Mean-reverting random walk toward 60 % of rating.
        let target = 0.6 * self.rating_kw;
        let drift = 0.05 * (target - self.power_kw);
        let noise = rng.normal(0.0, 0.02 * self.rating_kw);
        self.power_kw = (self.power_kw + drift + noise).clamp(0.0, self.rating_kw);
        self.voltage_v = (self.voltage_v + rng.normal(0.0, 0.4)).clamp(215.0, 245.0);
        self.frequency_hz = (self.frequency_hz + rng.normal(0.0, 0.01)).clamp(49.5, 50.5);
        self.energy_kwh += self.power_kw * period_secs / 3600.0;
        self.seq += 1;
    }

    /// The Narada test payload: a JMS MapMessage with 2 int + 5 float +
    /// 2 long + 3 double + 4 string values, with the `id` property the
    /// paper's selector (`id<10000`) filters on. `repeat` multiplies the
    /// payload (the "Triple" test used `repeat = 3`).
    pub fn narada_message(&self, msg_id: u64, now: SimTime, repeat: usize) -> Message {
        let mut entries: Vec<(Key, Value)> = Vec::with_capacity(16 * repeat);
        for r in 0..repeat {
            // Field names are static; only repeated copies build theirs.
            let p = |name: &'static str| -> Key {
                if r == 0 {
                    Key::Borrowed(name)
                } else {
                    Key::Owned(format!("{name}_{r}"))
                }
            };
            entries.extend([
                // 2 int
                (p("gen_id"), Value::Int(self.id as i32)),
                (p("status"), Value::Int(i32::from(self.online))),
                // 5 float
                (p("voltage"), Value::Float(self.voltage_v as f32)),
                (p("frequency"), Value::Float(self.frequency_hz as f32)),
                (
                    p("current"),
                    Value::Float((self.power_kw * 1000.0 / self.voltage_v) as f32),
                ),
                (p("temp_c"), Value::Float(35.5)),
                (p("wind_ms"), Value::Float(7.25)),
                // 2 long
                (p("seq"), Value::Long(self.seq as i64)),
                (p("uptime_s"), Value::Long((self.seq * 10) as i64)),
                // 3 double
                (p("power_kw"), Value::Double(self.power_kw)),
                (p("energy_kwh"), Value::Double(self.energy_kwh)),
                (p("rating_kw"), Value::Double(self.rating_kw)),
                // 4 string
                (p("site"), Value::Str(format!("site-{:04}", self.id % 977))),
                (p("operator"), Value::Str("gridcc".into())),
                (p("model"), Value::Str("WT-2000/E".into())),
                (p("fw"), Value::Str("v1.1.3".into())),
            ]);
        }
        Message::map(Headers::new(MessageId(msg_id), TOPIC, now), entries)
            .with_property("id", self.id as i32)
    }

    /// The R-GMA test payload: an SQL INSERT with 4 integer + 8 double +
    /// 4 char(20) values.
    pub fn rgma_insert_sql(&self) -> String {
        format!(
            "INSERT INTO {TABLE} (id, status, seq, uptime, \
             power, energy, rating, voltage, frequency, current, temp, wind, \
             site, operator, model, fw) VALUES \
             ({}, {}, {}, {}, {:.3}, {:.3}, {:.3}, {:.2}, {:.3}, {:.3}, {:.1}, {:.2}, \
             'site-{:04}', 'gridcc', 'WT-2000/E', 'glite-3.0')",
            self.id,
            i32::from(self.online),
            self.seq,
            self.seq * 10,
            self.power_kw,
            self.energy_kwh,
            self.rating_kw,
            self.voltage_v,
            self.frequency_hz,
            self.power_kw * 1000.0 / self.voltage_v,
            35.5,
            7.25,
            self.id % 977,
        )
    }
}

/// Topic used by the Narada tests.
pub const TOPIC: &str = "power.monitor";
/// Table used by the R-GMA tests.
pub const TABLE: &str = "generator";
/// `CREATE TABLE` for the R-GMA payload.
pub const TABLE_SQL: &str = "CREATE TABLE generator (\
     id INTEGER, status INTEGER, seq INTEGER, uptime INTEGER, \
     power DOUBLE PRECISION, energy DOUBLE PRECISION, rating DOUBLE PRECISION, \
     voltage DOUBLE PRECISION, frequency DOUBLE PRECISION, current DOUBLE PRECISION, \
     temp DOUBLE PRECISION, wind DOUBLE PRECISION, \
     site CHAR(20), operator CHAR(20), model CHAR(20), fw CHAR(20))";
/// The selector used in the paper ("did not filter out any data but just
/// to simulate real uses").
pub const PAPER_SELECTOR: &str = "id<10000";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamics_stay_in_range() {
        let mut rng = SimRng::new(1);
        let mut g = GeneratorState::new(7, &mut rng);
        for _ in 0..1000 {
            g.step(&mut rng, 10.0);
            assert!(g.power_kw >= 0.0 && g.power_kw <= g.rating_kw);
            assert!((215.0..=245.0).contains(&g.voltage_v));
            assert!((49.5..=50.5).contains(&g.frequency_hz));
        }
        assert!(g.energy_kwh > 0.0);
        assert_eq!(g.seq, 1000);
    }

    #[test]
    fn narada_payload_shape() {
        let mut rng = SimRng::new(2);
        let g = GeneratorState::new(42, &mut rng);
        let m = g.narada_message(1, SimTime::ZERO, 1);
        let wire::Body::Map(map) = &m.body else {
            panic!("map message")
        };
        let count = |t: wire::ValueType| map.values().filter(|v| v.value_type() == t).count();
        assert_eq!(count(wire::ValueType::Int), 2);
        assert_eq!(count(wire::ValueType::Float), 5);
        assert_eq!(count(wire::ValueType::Long), 2);
        assert_eq!(count(wire::ValueType::Double), 3);
        assert_eq!(count(wire::ValueType::Str), 4);
        assert_eq!(m.property("id"), Some(&Value::Int(42)));
        // The paper's selector matches.
        let sel = jms::Selector::compile(PAPER_SELECTOR).unwrap();
        assert!(sel.matches(&m));
    }

    #[test]
    fn triple_payload_triples_size() {
        let mut rng = SimRng::new(3);
        let g = GeneratorState::new(1, &mut rng);
        let single = g.narada_message(1, SimTime::ZERO, 1).wire_size();
        let triple = g.narada_message(1, SimTime::ZERO, 3).wire_size();
        assert!(triple > 2 * single, "triple {triple} vs single {single}");
        assert!(triple < 4 * single);
    }

    #[test]
    fn rgma_sql_parses_and_conforms() {
        let mut rng = SimRng::new(4);
        let mut g = GeneratorState::new(9, &mut rng);
        g.step(&mut rng, 10.0);
        let create = minisql::parse(TABLE_SQL).unwrap();
        let mut cat = minisql::Catalog::new();
        cat.create(&create).unwrap();
        let sql = g.rgma_insert_sql();
        let stmt = minisql::parse(&sql).unwrap();
        let minisql::Statement::Insert {
            table,
            columns,
            values,
        } = stmt
        else {
            panic!("INSERT expected")
        };
        assert_eq!(table, TABLE);
        let schema = cat.table(table).unwrap();
        let row = schema.normalize_insert(&columns, &values).unwrap();
        assert_eq!(row.len(), 16);
        // 4 int + 8 double + 4 char(20), as in the paper.
        let count = |t: wire::ValueType| row.iter().filter(|v| v.value_type() == t).count();
        assert_eq!(count(wire::ValueType::Int), 4);
        assert_eq!(count(wire::ValueType::Double), 8);
        assert_eq!(count(wire::ValueType::Char), 4);
    }

    #[test]
    fn deterministic_for_seed() {
        let make = |seed| {
            let mut rng = SimRng::new(seed);
            let mut g = GeneratorState::new(1, &mut rng);
            for _ in 0..10 {
                g.step(&mut rng, 10.0);
            }
            (g.power_kw, g.voltage_v, g.energy_kwh)
        };
        assert_eq!(make(5), make(5));
        assert_ne!(make(5), make(6));
    }
}
