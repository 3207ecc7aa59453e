//! Table schemas and insert validation (the R-GMA Schema service's data
//! model).

use crate::ast::{ColumnDef, SqlType, Statement};
use std::collections::HashMap;
use std::fmt;
use wire::{Tuple, Value};

/// Validation failure for an insert.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Referenced column does not exist.
    NoSuchColumn(String),
    /// Column count mismatch.
    ArityMismatch {
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// Value type incompatible with the column type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Declared type.
        expected: SqlType,
        /// Provided value (display form).
        got: String,
    },
    /// String too long for CHAR(n)/VARCHAR(n).
    TooLong {
        /// Column name.
        column: String,
        /// Declared width.
        width: u16,
        /// Actual length.
        len: usize,
    },
    /// Table already exists.
    DuplicateTable(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::NoSuchTable(t) => write!(f, "no such table {t}"),
            SchemaError::NoSuchColumn(c) => write!(f, "no such column {c}"),
            SchemaError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            SchemaError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(f, "column {column} expects {expected}, got {got}"),
            SchemaError::TooLong { column, width, len } => {
                write!(
                    f,
                    "value too long for {column} (CHAR({width})): {len} chars"
                )
            }
            SchemaError::DuplicateTable(t) => write!(f, "table {t} already exists"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// One table's schema.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    index: HashMap<String, usize>,
}

impl TableSchema {
    /// Build from a parsed `CREATE TABLE`.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        let name = name.into();
        let index = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        TableSchema {
            name,
            columns,
            index,
        }
    }

    /// Column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate and normalize an insert: reorders named columns into
    /// declaration order, coerces integer widening and Str→Char, and
    /// checks widths. Returns the normalized row values.
    pub fn normalize_insert(
        &self,
        columns: &[&str],
        values: &[Value],
    ) -> Result<Vec<Value>, SchemaError> {
        // Every named column must exist before arity is judged.
        for (i, c) in columns.iter().enumerate() {
            self.slot(i, c)
                .ok_or_else(|| SchemaError::NoSuchColumn((*c).to_owned()))?;
        }
        let named = if columns.is_empty() {
            self.arity()
        } else {
            columns.len()
        };
        if named != values.len() || named != self.arity() {
            return Err(SchemaError::ArityMismatch {
                expected: self.arity(),
                got: values.len(),
            });
        }
        let mut row = vec![Value::Int(0); self.arity()];
        for (i, v) in values.iter().enumerate() {
            let slot = match columns.get(i) {
                Some(c) => self.slot(i, c).expect("checked above"),
                None => i,
            };
            row[slot] = coerce(v, &self.columns[slot])?;
        }
        Ok(row)
    }

    /// Declaration index of `name`, named at position `i` of an insert's
    /// column list. Inserts usually list columns in declaration order,
    /// so position `i` is tried before the name index.
    fn slot(&self, i: usize, name: &str) -> Option<usize> {
        match self.columns.get(i) {
            Some(c) if c.name == name => Some(i),
            _ => self.column_index(name),
        }
    }

    /// Project a row onto a column list (empty = all columns).
    pub fn project(&self, row: &[Value], columns: &[String]) -> Result<Vec<Value>, SchemaError> {
        if columns.is_empty() {
            return Ok(row.to_vec());
        }
        columns
            .iter()
            .map(|c| {
                self.column_index(c)
                    .map(|ix| row[ix].clone())
                    .ok_or_else(|| SchemaError::NoSuchColumn(c.clone()))
            })
            .collect()
    }

    /// Convert a normalized row into a wire tuple.
    pub fn to_tuple(&self, row: Vec<Value>) -> Tuple {
        Tuple::new(self.name.clone(), row)
    }
}

fn coerce(v: &Value, col: &ColumnDef) -> Result<Value, SchemaError> {
    let mismatch = || SchemaError::TypeMismatch {
        column: col.name.clone(),
        expected: col.ty,
        got: v.to_string(),
    };
    Ok(match (col.ty, v) {
        (SqlType::Integer, Value::Int(x)) => Value::Int(*x),
        (SqlType::Integer, Value::Long(x)) => {
            Value::Int(i32::try_from(*x).map_err(|_| mismatch())?)
        }
        (SqlType::Bigint, Value::Int(x)) => Value::Long(i64::from(*x)),
        (SqlType::Bigint, Value::Long(x)) => Value::Long(*x),
        (SqlType::Real, Value::Float(x)) => Value::Float(*x),
        (SqlType::Real, Value::Int(x)) => Value::Float(*x as f32),
        (SqlType::Real, Value::Long(x)) => Value::Float(*x as f32),
        (SqlType::Real, Value::Double(x)) => Value::Float(*x as f32),
        (SqlType::Double, Value::Double(x)) => Value::Double(*x),
        (SqlType::Double, Value::Float(x)) => Value::Double(f64::from(*x)),
        (SqlType::Double, Value::Int(x)) => Value::Double(f64::from(*x)),
        (SqlType::Double, Value::Long(x)) => Value::Double(*x as f64),
        (SqlType::Char(w), Value::Str(s)) | (SqlType::Char(w), Value::Char { content: s, .. }) => {
            if s.len() > w as usize {
                return Err(SchemaError::TooLong {
                    column: col.name.clone(),
                    width: w,
                    len: s.len(),
                });
            }
            Value::fixed_char(s.clone(), w)
        }
        (SqlType::Varchar(w), Value::Str(s))
        | (SqlType::Varchar(w), Value::Char { content: s, .. }) => {
            if s.len() > w as usize {
                return Err(SchemaError::TooLong {
                    column: col.name.clone(),
                    width: w,
                    len: s.len(),
                });
            }
            Value::Str(s.clone())
        }
        _ => return Err(mismatch()),
    })
}

/// A catalogue of table schemas (the Schema service's store).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, TableSchema>,
}

impl Catalog {
    /// Empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute a `CREATE TABLE` statement.
    pub fn create(&mut self, stmt: &Statement) -> Result<&TableSchema, SchemaError> {
        let Statement::CreateTable { table, columns } = stmt else {
            panic!("create() requires a CREATE TABLE statement");
        };
        if self.tables.contains_key(table) {
            return Err(SchemaError::DuplicateTable(table.clone()));
        }
        self.tables.insert(
            table.clone(),
            TableSchema::new(table.clone(), columns.clone()),
        );
        Ok(&self.tables[table])
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&TableSchema, SchemaError> {
        self.tables
            .get(name)
            .ok_or_else(|| SchemaError::NoSuchTable(name.to_owned()))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(&parse("CREATE TABLE g (id INTEGER, power DOUBLE, site CHAR(8))").unwrap())
            .unwrap();
        c
    }

    #[test]
    fn create_and_lookup() {
        let c = catalog();
        let t = c.table("g").unwrap();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.column_index("power"), Some(1));
        assert!(c.table("nope").is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = catalog();
        let err = c
            .create(&parse("CREATE TABLE g (x INTEGER)").unwrap())
            .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateTable("g".into()));
    }

    #[test]
    fn normalize_insert_in_order() {
        let c = catalog();
        let row = c
            .table("g")
            .unwrap()
            .normalize_insert(
                &[],
                &[
                    Value::Long(1),
                    Value::Double(2.5),
                    Value::Str("hydra".into()),
                ],
            )
            .unwrap();
        assert_eq!(
            row,
            vec![
                Value::Int(1),
                Value::Double(2.5),
                Value::fixed_char("hydra", 8)
            ]
        );
    }

    #[test]
    fn normalize_insert_reorders_named_columns() {
        let c = catalog();
        let row = c
            .table("g")
            .unwrap()
            .normalize_insert(
                &["site", "id", "power"],
                &[Value::Str("x".into()), Value::Long(9), Value::Long(3)],
            )
            .unwrap();
        assert_eq!(row[0], Value::Int(9));
        assert_eq!(row[1], Value::Double(3.0));
        assert_eq!(row[2], Value::fixed_char("x", 8));
    }

    #[test]
    fn insert_validation_errors() {
        let c = catalog();
        let t = c.table("g").unwrap();
        assert!(matches!(
            t.normalize_insert(&[], &[Value::Long(1)]),
            Err(SchemaError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.normalize_insert(
                &[],
                &[
                    Value::Str("not int".into()),
                    Value::Double(0.0),
                    Value::Str("x".into())
                ]
            ),
            Err(SchemaError::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.normalize_insert(
                &[],
                &[
                    Value::Long(1),
                    Value::Double(0.0),
                    Value::Str("waaaaaay too long".into())
                ]
            ),
            Err(SchemaError::TooLong { .. })
        ));
        assert!(matches!(
            t.normalize_insert(&["bogus"], &[Value::Long(1)]),
            Err(SchemaError::NoSuchColumn(_))
        ));
        // Integer overflow into INT column.
        assert!(matches!(
            t.normalize_insert(
                &[],
                &[
                    Value::Long(i64::MAX),
                    Value::Double(0.0),
                    Value::Str("x".into())
                ]
            ),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn projection() {
        let c = catalog();
        let t = c.table("g").unwrap();
        let row = vec![Value::Int(1), Value::Double(2.0), Value::fixed_char("s", 8)];
        assert_eq!(t.project(&row, &[]).unwrap().len(), 3);
        let p = t.project(&row, &["power".into()]).unwrap();
        assert_eq!(p, vec![Value::Double(2.0)]);
        assert!(t.project(&row, &["zzz".into()]).is_err());
    }

    #[test]
    fn to_tuple_carries_table_name() {
        let c = catalog();
        let t = c.table("g").unwrap();
        let tuple = t.to_tuple(vec![
            Value::Int(1),
            Value::Double(2.0),
            Value::fixed_char("s", 8),
        ]);
        assert_eq!(tuple.table, "g");
        assert_eq!(tuple.values.len(), 3);
    }
}
