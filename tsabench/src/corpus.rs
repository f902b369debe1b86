//! The benchmark's inputs: its own copy of the 21 corpus programs and
//! the edit sites of the `edit` workload.
//!
//! The programs mirror the paper's workload classes (front-end code,
//! multiword math, array numerics, OO and data structures) and spread
//! the traffic: compile cost differs about 4x between programs and run
//! cost about 70x, with five loop-heavy programs (BitSieve, GameOfLife,
//! NBody, QuickSort, HashTable) taking most of the execute time.

/// One corpus program.
#[derive(Debug)]
pub struct Program {
    pub name: &'static str,
    pub source: &'static str,
    /// Entry point, `Class.method`.
    pub entry: &'static str,
}

macro_rules! program {
    ($name:literal, $entry:literal) => {
        Program {
            name: $name,
            source: include_str!(concat!("../corpus/", $name, ".java")),
            entry: $entry,
        }
    };
}

pub const PROGRAMS: [Program; 21] = [
    program!("Scanner", "Scanner.main"),
    program!("Parser", "Parser.main"),
    program!("StateMachine", "StateMachine.main"),
    program!("Huffman", "Huffman.main"),
    program!("BigInteger", "Big.main"),
    program!("BigDecimal", "Dec.main"),
    program!("BitSieve", "BitSieve.main"),
    program!("Crc32", "Crc32.main"),
    program!("Linpack", "Linpack.main"),
    program!("Matrix", "Matrix.main"),
    program!("NBody", "NBody.main"),
    program!("GameOfLife", "GameOfLife.main"),
    program!("Pathfind", "Pathfind.main"),
    program!("Filter", "Filter.main"),
    program!("QuickSort", "QuickSort.main"),
    program!("HashTable", "HashTable.main"),
    program!("ListOps", "ListOps.main"),
    program!("Shapes", "Shapes.main"),
    program!("Bank", "Bank.main"),
    program!("StringBench", "StringBench.main"),
    program!("Exceptions", "Exceptions.main"),
];

/// One integer literal inside one non-`main` method. An `edit` op
/// replaces the literal with a value no earlier op used, so the
/// method's body hash is new and exactly that unit recompiles.
#[derive(Debug)]
pub struct EditSite {
    pub program: &'static str,
    pub method: &'static str,
    /// Text around the literal; occurs exactly once in the program.
    pub needle: &'static str,
    pub literal: &'static str,
}

/// Five sites, an odd count, so the median op falls inside one
/// program's cluster of latencies instead of between two.
pub const EDIT_SITES: [EditSite; 5] = [
    EditSite {
        program: "QuickSort",
        method: "sort",
        needle: "hi - lo > 12",
        literal: "12",
    },
    EditSite {
        program: "HashTable",
        method: "slot",
        needle: "h ^= h >>> 16;",
        literal: "16",
    },
    EditSite {
        program: "Linpack",
        method: "matgen",
        needle: "% 2000 - 1000",
        literal: "2000",
    },
    EditSite {
        program: "Bank",
        method: "fee",
        needle: "{ return 25; }",
        literal: "25",
    },
    EditSite {
        program: "Parser",
        method: "factor",
        needle: "v = v * 10 +",
        literal: "10",
    },
];

pub fn program(name: &str) -> &'static Program {
    PROGRAMS
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no corpus program {name}"))
}

impl EditSite {
    /// The program's source with the literal replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics unless the needle occurs exactly once.
    pub fn apply(&self, value: u64) -> String {
        let src = program(self.program).source;
        assert_eq!(
            src.matches(self.needle).count(),
            1,
            "{}.{}: edit needle `{}` must occur exactly once",
            self.program,
            self.method,
            self.needle
        );
        let edited = self.needle.replacen(self.literal, &value.to_string(), 1);
        src.replacen(self.needle, &edited, 1)
    }
}

/// FNV-1a over every input the benchmark feeds the program, recorded
/// with each result so two results can be checked to share inputs.
pub fn digest() -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |s: &str| {
        for b in s.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in &PROGRAMS {
        feed(p.name);
        feed(p.entry);
        feed(p.source);
    }
    for s in &EDIT_SITES {
        feed(s.program);
        feed(s.needle);
        feed(s.literal);
    }
    h
}
