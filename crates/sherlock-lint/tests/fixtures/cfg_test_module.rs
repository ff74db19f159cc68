//! Fixture: `#[cfg(test)]` items are exempt from panic-path; the
//! surrounding non-test code is not.

use std::collections::HashMap;

pub fn before(m: &HashMap<u32, u32>) -> u32 {
    m[&1] // REAL: must be reported on this line
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn panics_are_fine_here() {
        let m: HashMap<u32, u32> = HashMap::from([(1, 2)]);
        assert_eq!(m[&1], 2);
    }
}

#[allow(dead_code)]
#[cfg(test)]
mod stacked_attrs {
    pub fn also_exempt(m: &std::collections::HashMap<u32, u32>) -> u32 {
        m[&1]
    }
}

#[cfg(not(test))]
mod shipped {
    pub fn live(m: &std::collections::HashMap<u32, u32>) -> u32 {
        m[&1] // REAL: cfg(not(test)) is shipped code, must be reported
    }
}

pub fn after(m: &HashMap<u32, u32>) -> u32 {
    m[&2] // REAL: must be reported on this line
}
