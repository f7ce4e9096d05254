//! Call-graph fixture: a derived `Default` calls each named field's
//! `<Type>::default`, through nested derives.

pub struct Pool {
    cap: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::with_cap(64)
    }
}

impl Pool {
    pub fn with_cap(cap: usize) -> Self {
        Pool { cap }
    }
}

#[derive(Clone, Default)]
#[allow(dead_code)]
pub struct Tape {
    values: Vec<(u32, f32)>,
    pub(crate) pool: crate::pool::Pool,
}

impl Tape {
    pub fn fresh() -> Self {
        Self::default()
    }
}

#[derive(Default)]
pub struct Run {
    tape: Tape,
    steps: std::collections::BTreeMap<u32, u64>,
}

pub fn new_run() -> Run {
    Run::default()
}
