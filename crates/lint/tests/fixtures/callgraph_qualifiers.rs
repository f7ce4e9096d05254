//! Call-graph fixture: path qualifiers that name a type through a
//! turbofish, through a type alias, or through a type parameter.

pub struct Operands<const N: usize>;

impl<const N: usize> Operands<N> {
    pub fn new() -> Self {
        Operands
    }
}

pub struct Pool;

impl Pool {
    pub fn new(v: &[u32]) -> u32 {
        v[0]
    }
}

pub struct Model<P>(P);

impl<P> Model<P> {
    pub fn new(p: P) -> Self {
        Model(p)
    }
}

pub type Alias = crate::Model<u8>;

pub fn with_turbofish() -> Operands<3> {
    Operands::<3>::new()
}

pub fn through_alias() -> Alias {
    Alias::new(0)
}

pub trait Rows {
    fn rows() -> u32;
}

pub struct ByPath;

impl Rows for ByPath {
    fn rows() -> u32 {
        1
    }
}

pub fn through_param<P: Rows>() -> u32 {
    P::rows()
}
