//! The paper's benchmark package: *Server-Side Sum* and *Indirect Put* jams plus the
//! rieds they link against (§VI-B).
//!
//! Both jams are defined once and built by the toolchain into an injectable object
//! *and* registered in the Local Function library — "By providing both in the same
//! package from the same source, the same code could be ported between systems where
//! different types provide better performance."
//!
//! * **Server-Side Sum** loops over its payload accumulating a sum, then stores the
//!   result at the next spot in an array on the server (the `ried_array` ried).
//! * **Indirect Put** models indirected access to a server-resident structure: the
//!   client picks a key, the jam probes the server's hash table (`ried_table`) to
//!   obtain/assign an offset for that key, and copies the payload to the chosen
//!   location — steps (1)–(3) of Fig. 4.
//!
//! The shipped code footprints are padded to match the paper: the Indirect Put jam is
//! 1408 bytes on the wire (code + GOT image), the Server-Side Sum jam is 256 bytes —
//! which is why the Injected-vs-Local overhead converges around 64 integers for
//! Server-Side Sum but only around 1024 integers for Indirect Put (§VII-A).

use std::sync::Arc;

use twochains_jamvm::isa::{hash64, Width};
use twochains_jamvm::{Assembler, Reg};
use twochains_linker::{JamDefinition, Package, PackageBuilder, Ried, RiedBuilder, SymbolRef};

use crate::error::{AmError, AmResult};

/// Size of the fixed ARGS block both benchmark jams use (key, count, element size).
pub const ARGS_SIZE: usize = 20;
/// Bytes of code + GOT the Indirect Put jam ships (matches the paper).
pub const INDIRECT_PUT_SHIPPED_BYTES: usize = 1408;
/// Bytes of code + GOT the Server-Side Sum jam ships.
pub const SERVER_SIDE_SUM_SHIPPED_BYTES: usize = 256;
/// Bytes of code + GOT each graph-analytics stage jam ships. The stages are
/// deliberately tiny (one load, one extern call): the point of chaining them
/// is amortising the *dispatch*, not the code.
pub const GRAPH_STAGE_SHIPPED_BYTES: usize = 128;
/// Size of the ARGS block the graph stages use (one little-endian u64 operand).
pub const GRAPH_ARGS_SIZE: usize = 8;
/// Number of hash buckets in the benchmark table ried.
pub const TABLE_BUCKETS: usize = 4096;
/// Size of the table payload heap.
pub const TABLE_DATA_BYTES: usize = 1 << 20;
/// Size of the result array exported by `ried_array` (slots of 8 bytes).
pub const ARRAY_SLOTS: usize = 8192;

/// The benchmark jams: the paper's two (§VI-B) plus the three graph-analytics
/// stages the receiver-side chain benchmark strings together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinJam {
    /// Sum the payload, append the result server-side.
    ServerSideSum,
    /// Hash-probe a key and copy the payload to the indirected location.
    IndirectPut,
    /// Graph chain stage 1: node key → derived node value (pure).
    GraphLookup,
    /// Graph chain stage 2: keep even node values, zero the rest (pure).
    GraphFilter,
    /// Graph chain stage 3: fold the value into the server-side accumulator
    /// (`graph.accum`), returning the contribution.
    GraphAggregate,
}

impl BuiltinJam {
    /// Package element name of this jam.
    pub fn element_name(self) -> &'static str {
        match self {
            BuiltinJam::ServerSideSum => "jam_server_side_sum",
            BuiltinJam::IndirectPut => "jam_indirect_put",
            BuiltinJam::GraphLookup => "jam_graph_lookup",
            BuiltinJam::GraphFilter => "jam_graph_filter",
            BuiltinJam::GraphAggregate => "jam_graph_aggregate",
        }
    }

    /// Bytes of code + GOT this jam adds to an Injected Function frame.
    pub fn shipped_code_bytes(self) -> usize {
        match self {
            BuiltinJam::ServerSideSum => SERVER_SIDE_SUM_SHIPPED_BYTES,
            BuiltinJam::IndirectPut => INDIRECT_PUT_SHIPPED_BYTES,
            BuiltinJam::GraphLookup | BuiltinJam::GraphFilter | BuiltinJam::GraphAggregate => {
                GRAPH_STAGE_SHIPPED_BYTES
            }
        }
    }

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            BuiltinJam::ServerSideSum => "Server-Side Sum",
            BuiltinJam::IndirectPut => "Indirect Put",
            BuiltinJam::GraphLookup => "Graph Lookup",
            BuiltinJam::GraphFilter => "Graph Filter",
            BuiltinJam::GraphAggregate => "Graph Aggregate",
        }
    }
}

/// Build the ARGS block for Server-Side Sum: the integer count (the payload length is
/// carried by the frame itself).
pub fn ssum_args(count: u32) -> Vec<u8> {
    let mut args = vec![0u8; ARGS_SIZE];
    args[8..12].copy_from_slice(&count.to_le_bytes());
    args
}

/// Build the ARGS block for Indirect Put: client-chosen key, element count, element size.
pub fn indirect_put_args(key: u64, count: u32, elem_size: u32) -> Vec<u8> {
    let mut args = vec![0u8; ARGS_SIZE];
    args[0..8].copy_from_slice(&key.to_le_bytes());
    args[8..12].copy_from_slice(&count.to_le_bytes());
    args[12..16].copy_from_slice(&elem_size.to_le_bytes());
    args
}

/// Build the ARGS block for a graph chain stage: one little-endian u64 operand
/// (the node key for [`BuiltinJam::GraphLookup`]; for the later stages, the
/// value the previous stage produced — which is exactly what the chain
/// executor writes into the per-chain context cell, so a chained stage and a
/// standalone send of the same stage see bit-identical operands).
pub fn graph_args(operand: u64) -> Vec<u8> {
    operand.to_le_bytes().to_vec()
}

/// Server-Side Sum program. Entry convention: `r0` = ARGS base, `r1` = USR base,
/// `r2` = USR length in bytes. GOT slot 0 = `array.append`.
fn server_side_sum_program() -> Vec<twochains_jamvm::Instr> {
    let mut a = Assembler::new();
    a.mov(Reg(3), Reg(1)) // cursor
        .mov(Reg(4), Reg(2)) // remaining bytes
        .load_imm(Reg(5), 0) // accumulator
        .load_imm(Reg(6), 4)
        .jz(Reg(4), "done")
        .label("loop")
        .load(Width::B4, Reg(7), Reg(3), 0)
        .add(Reg(5), Reg(5), Reg(7))
        .add(Reg(3), Reg(3), Reg(6))
        .sub(Reg(4), Reg(4), Reg(6))
        .jnz(Reg(4), "loop")
        .label("done")
        .mov(Reg(0), Reg(5))
        .call_extern(0, 1)
        .mov(Reg(0), Reg(5))
        .ret();
    a.finish().expect("server-side sum assembles")
}

/// Indirect Put program. Entry convention as above. GOT slot 0 = `table.probe`.
fn indirect_put_program() -> Vec<twochains_jamvm::Instr> {
    let mut a = Assembler::new();
    a.mov(Reg(7), Reg(1)) // usr base
        .mov(Reg(8), Reg(2)) // usr len
        .load(Width::B8, Reg(3), Reg(0), 0) // key
        .load(Width::B4, Reg(4), Reg(0), 8) // count
        .load(Width::B4, Reg(5), Reg(0), 12) // elem size
        .mov(Reg(0), Reg(3))
        .mov(Reg(1), Reg(4))
        .mov(Reg(2), Reg(5))
        .call_extern(0, 3) // -> destination address
        .mov(Reg(9), Reg(0))
        .memcpy(Reg(9), Reg(7), Reg(8))
        .mov(Reg(0), Reg(9))
        .ret();
    a.finish().expect("indirect put assembles")
}

/// The shared program of every graph chain stage: load the 8-byte operand the
/// entry register `r0` points at (the ARGS block of a standalone send, or the
/// per-chain context cell of a chained dispatch), hand it to the stage's one
/// extern (GOT slot 0), return the extern's result. The load-from-`[r0]`
/// convention is what makes an N-stage chain result-equal to N sequential
/// messages carrying each other's results as ARGS.
fn graph_stage_program() -> Vec<twochains_jamvm::Instr> {
    let mut a = Assembler::new();
    a.load(Width::B8, Reg(0), Reg(0), 0).call_extern(0, 1).ret();
    a.finish().expect("graph stage assembles")
}

/// The `ried_graph` interface library: a 16-byte accumulator heap
/// (`graph.accum`: contribution count, running sum) plus the three stage
/// functions of the lookup→filter→aggregate chain. `graph.add` returns the
/// stage's *contribution*, not the running total, so per-message results are
/// independent of drain order; the heap itself is the aggregate oracle.
pub fn ried_graph() -> Ried {
    RiedBuilder::new("ried_graph")
        .export_heap("graph.accum", 16)
        .export_fn(
            "graph.node",
            Arc::new(|_ctx, args| {
                let key = *args.first().ok_or("graph.node needs one argument")?;
                Ok(hash64(key))
            }),
        )
        .export_fn(
            "graph.filter",
            Arc::new(|_ctx, args| {
                let v = *args.first().ok_or("graph.filter needs one argument")?;
                Ok(if v % 2 == 0 { v } else { 0 })
            }),
        )
        .export_fn(
            "graph.add",
            Arc::new(|ctx, args| {
                let v = *args.first().ok_or("graph.add needs one argument")?;
                let base = ctx
                    .space
                    .segment_meta("graph.accum")
                    .ok_or("graph.accum not mapped")?
                    .base;
                let count = ctx.read_u64(base)?;
                let sum = ctx.read_u64(base + 8)?;
                ctx.write_u64(base, count + 1)?;
                ctx.write_u64(base + 8, sum.wrapping_add(v))?;
                Ok(v)
            }),
        )
        .build()
}

/// The `ried_array` interface library: a result array plus the `array.append`
/// function Server-Side Sum calls.
pub fn ried_array() -> Ried {
    RiedBuilder::new("ried_array")
        .export_heap("array.base", 8 + ARRAY_SLOTS * 8)
        .export_fn(
            "array.append",
            Arc::new(|ctx, args| {
                let sum = *args.first().ok_or("array.append needs one argument")?;
                let base = ctx
                    .space
                    .segment_meta("array.base")
                    .ok_or("array.base not mapped")?
                    .base;
                let counter = ctx.read_u64(base)?;
                let slot = counter % ARRAY_SLOTS as u64;
                ctx.write_u64(base + 8 + slot * 8, sum)?;
                ctx.write_u64(base, counter + 1)?;
                Ok(slot)
            }),
        )
        .build()
}

/// The `ried_table` interface library: a hash-probed index over a payload heap plus
/// the `table.probe` function Indirect Put calls (Fig. 4's steps 1 and 2).
pub fn ried_table() -> Ried {
    RiedBuilder::new("ried_table")
        // bucket array: 16 bytes per bucket (key, offset+1)
        .export_heap("table.buckets", TABLE_BUCKETS * 16)
        // payload heap: first 8 bytes are the bump allocation cursor
        .export_heap("table.data", TABLE_DATA_BYTES)
        .export_fn(
            "table.probe",
            Arc::new(|ctx, args| {
                if args.len() < 3 {
                    return Err("table.probe needs (key, count, elem_size)".into());
                }
                let (key, count, elem_size) = (args[0], args[1], args[2]);
                let buckets_base = ctx
                    .space
                    .segment_meta("table.buckets")
                    .ok_or("table.buckets not mapped")?
                    .base;
                let data_seg = ctx
                    .space
                    .segment_meta("table.data")
                    .ok_or("table.data not mapped")?;
                let data_base = data_seg.base;
                let data_len = data_seg.len as u64;
                let bytes_needed = count.saturating_mul(elem_size).max(1);

                let mut idx = hash64(key) % TABLE_BUCKETS as u64;
                for _probe in 0..TABLE_BUCKETS {
                    let entry = buckets_base + idx * 16;
                    let stored_key = ctx.read_u64(entry)?;
                    let stored_off = ctx.read_u64(entry + 8)?;
                    if stored_off != 0 && stored_key == key {
                        // Existing key: the client controls the distribution, reuse
                        // the previously assigned offset.
                        return Ok(data_base + stored_off);
                    }
                    if stored_off == 0 {
                        // Empty bucket: allocate from the bump cursor.
                        let mut cursor = ctx.read_u64(data_base)?;
                        if cursor == 0 {
                            cursor = 16;
                        }
                        if cursor + bytes_needed > data_len {
                            // Wrap the bump allocator; the benchmark reuses the heap.
                            cursor = 16;
                        }
                        let offset = cursor;
                        ctx.write_u64(data_base, cursor + bytes_needed)?;
                        ctx.write_u64(entry, key)?;
                        ctx.write_u64(entry + 8, offset)?;
                        return Ok(data_base + offset);
                    }
                    idx = (idx + 1) % TABLE_BUCKETS as u64;
                }
                Err("hash table full".into())
            }),
        )
        .build()
}

/// The rieds of the benchmark package, in load order.
pub fn benchmark_rieds() -> Vec<Ried> {
    vec![ried_array(), ried_table(), ried_graph()]
}

/// Build the benchmark package (rieds + both jams, with the paper's shipped-code
/// footprints).
pub fn benchmark_package() -> AmResult<Package> {
    let ssum = JamDefinition::new(
        BuiltinJam::ServerSideSum.element_name(),
        server_side_sum_program(),
    )
    .with_got(vec![SymbolRef::func("array.append")])
    .with_args_size(ARGS_SIZE)
    .padded_to(SERVER_SIDE_SUM_SHIPPED_BYTES - 8);
    let iput = JamDefinition::new(
        BuiltinJam::IndirectPut.element_name(),
        indirect_put_program(),
    )
    .with_got(vec![SymbolRef::func("table.probe")])
    .with_args_size(ARGS_SIZE)
    .padded_to(INDIRECT_PUT_SHIPPED_BYTES - 8);
    let graph_stage = |jam: BuiltinJam, func: &str| {
        JamDefinition::new(jam.element_name(), graph_stage_program())
            .with_got(vec![SymbolRef::func(func)])
            .with_args_size(GRAPH_ARGS_SIZE)
            .padded_to(GRAPH_STAGE_SHIPPED_BYTES - 8)
    };
    PackageBuilder::new("twochains_benchmarks")
        .ried(ried_array())
        .ried(ried_table())
        .ried(ried_graph())
        .jam(ssum)
        .jam(iput)
        .jam(graph_stage(BuiltinJam::GraphLookup, "graph.node"))
        .jam(graph_stage(BuiltinJam::GraphFilter, "graph.filter"))
        .jam(graph_stage(BuiltinJam::GraphAggregate, "graph.add"))
        .build()
        .map_err(AmError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twochains_jamvm::externs::ExternCtx;
    use twochains_jamvm::{AddressSpace, Segment, SegmentKind, Vm, VmConfig};
    use twochains_linker::LinkerNamespace;
    use twochains_memsim::hierarchy::FlatMemory;
    use twochains_memsim::SimTime;

    fn namespace_and_space() -> (LinkerNamespace, AddressSpace) {
        let mut ns = LinkerNamespace::new();
        for ried in benchmark_rieds() {
            ns.load_ried(&ried, false).unwrap();
        }
        let mut space = AddressSpace::new();
        for o in ns.data_objects() {
            space
                .map(Segment::new(&o.name, o.addr, o.init, o.writable, o.kind))
                .unwrap();
        }
        (ns, space)
    }

    #[test]
    fn package_builds_with_paper_code_footprints() {
        let pkg = benchmark_package().unwrap();
        let iput = pkg
            .jam(pkg.id_of(BuiltinJam::IndirectPut.element_name()).unwrap())
            .unwrap();
        assert_eq!(
            iput.code_size() + iput.got_size(),
            INDIRECT_PUT_SHIPPED_BYTES
        );
        let ssum = pkg
            .jam(pkg.id_of(BuiltinJam::ServerSideSum.element_name()).unwrap())
            .unwrap();
        assert_eq!(
            ssum.code_size() + ssum.got_size(),
            SERVER_SIDE_SUM_SHIPPED_BYTES
        );
        for jam in [
            BuiltinJam::GraphLookup,
            BuiltinJam::GraphFilter,
            BuiltinJam::GraphAggregate,
        ] {
            let stage = pkg.jam(pkg.id_of(jam.element_name()).unwrap()).unwrap();
            assert_eq!(
                stage.code_size() + stage.got_size(),
                GRAPH_STAGE_SHIPPED_BYTES,
                "{}",
                jam.label()
            );
        }
        assert_eq!(pkg.rieds().count(), 3);
    }

    fn run_jam(
        jam: BuiltinJam,
        args: Vec<u8>,
        usr: Vec<u8>,
        ns: &LinkerNamespace,
        space: &mut AddressSpace,
    ) -> u64 {
        let pkg = benchmark_package().unwrap();
        let obj = pkg.jam(pkg.id_of(jam.element_name()).unwrap()).unwrap();
        let got = ns.resolve_got(&obj.got).unwrap();
        // Map the message sections at arbitrary mailbox-like addresses.
        let args_base = 0x9000_0000u64;
        let usr_base = 0x9000_1000u64;
        let usr_len = usr.len();
        space
            .map(Segment::new(
                "msg.args",
                args_base,
                args,
                false,
                SegmentKind::Args,
            ))
            .unwrap();
        space
            .map(Segment::new(
                "msg.usr",
                usr_base,
                usr,
                false,
                SegmentKind::Payload,
            ))
            .unwrap();
        let program = obj.program().unwrap().to_instrs();
        let mut bus = FlatMemory::free();
        // Entry convention: r0=args, r1=usr, r2=usr_len — seeded through the config
        // so the program runs as-is (no prologue, no branch-target rewrite).
        let cfg = VmConfig {
            entry_regs: [args_base, usr_base, usr_len as u64],
            ..VmConfig::default()
        };
        let stats = Vm::execute(&program, &got, ns.externs(), space, &mut bus, &cfg).unwrap();
        space.unmap("msg.args");
        space.unmap("msg.usr");
        stats.result
    }

    #[test]
    fn server_side_sum_accumulates_and_appends() {
        let (ns, mut space) = namespace_and_space();
        let payload: Vec<u8> = (1u32..=8).flat_map(|v| v.to_le_bytes()).collect();
        let r = run_jam(
            BuiltinJam::ServerSideSum,
            ssum_args(8),
            payload,
            &ns,
            &mut space,
        );
        assert_eq!(r, 36);
        // The result landed in the server-side array.
        let base = ns.data_addr("array.base").unwrap();
        let count = u64::from_le_bytes(space.read(base, 8).unwrap().try_into().unwrap());
        assert_eq!(count, 1);
        let slot0 = u64::from_le_bytes(space.read(base + 8, 8).unwrap().try_into().unwrap());
        assert_eq!(slot0, 36);
        // A second message appends at the next slot.
        let payload: Vec<u8> = (1u32..=4).flat_map(|v| v.to_le_bytes()).collect();
        run_jam(
            BuiltinJam::ServerSideSum,
            ssum_args(4),
            payload,
            &ns,
            &mut space,
        );
        let slot1 = u64::from_le_bytes(space.read(base + 16, 8).unwrap().try_into().unwrap());
        assert_eq!(slot1, 10);
    }

    #[test]
    fn indirect_put_stores_payload_at_hashed_location() {
        let (ns, mut space) = namespace_and_space();
        let payload: Vec<u8> = (0u32..16).flat_map(|v| (v * 3).to_le_bytes()).collect();
        let dst = run_jam(
            BuiltinJam::IndirectPut,
            indirect_put_args(0xFEED_BEEF, 16, 4),
            payload.clone(),
            &ns,
            &mut space,
        );
        // The returned destination address holds the payload.
        assert_eq!(space.read(dst, payload.len()).unwrap(), &payload[..]);
        // Re-putting the same key overwrites the same location (client-controlled
        // distribution); a different key lands elsewhere.
        let payload2: Vec<u8> = (0u32..16).flat_map(|v| (v * 7).to_le_bytes()).collect();
        let dst_same = run_jam(
            BuiltinJam::IndirectPut,
            indirect_put_args(0xFEED_BEEF, 16, 4),
            payload2.clone(),
            &ns,
            &mut space,
        );
        assert_eq!(dst_same, dst);
        assert_eq!(space.read(dst, payload2.len()).unwrap(), &payload2[..]);
        let dst_other = run_jam(
            BuiltinJam::IndirectPut,
            indirect_put_args(0x1234, 16, 4),
            payload.clone(),
            &ns,
            &mut space,
        );
        assert_ne!(dst_other, dst);
    }

    #[test]
    fn table_probe_handles_collisions_via_linear_probing() {
        let (ns, mut space) = namespace_and_space();
        // Find two keys that collide in the bucket array.
        let k1 = 1u64;
        let mut k2 = 2u64;
        while hash64(k2) % TABLE_BUCKETS as u64 != hash64(k1) % TABLE_BUCKETS as u64 {
            k2 += 1;
        }
        let mut bus = FlatMemory::free();
        let table = ried_table();
        let probe = &table
            .functions()
            .iter()
            .find(|(n, _)| n == "table.probe")
            .unwrap()
            .1;
        let mut ctx = ExternCtx {
            space: &mut space,
            bus: &mut bus,
            core: 0,
            elapsed: SimTime::ZERO,
        };
        let a = probe(&mut ctx, &[k1, 4, 4]).unwrap();
        let b = probe(&mut ctx, &[k2, 4, 4]).unwrap();
        assert_ne!(a, b, "colliding keys get distinct storage");
        let a_again = probe(&mut ctx, &[k1, 4, 4]).unwrap();
        assert_eq!(a, a_again);
        let _ = ns;
    }

    #[test]
    fn graph_stages_compose_like_a_chain() {
        let (ns, mut space) = namespace_and_space();
        let key = 0xACE5u64;
        // Each stage run standalone, feeding the previous stage's result in as
        // ARGS — the sequential schedule the chain executor must be
        // result-equal to.
        let v1 = run_jam(
            BuiltinJam::GraphLookup,
            graph_args(key),
            Vec::new(),
            &ns,
            &mut space,
        );
        assert_eq!(v1, hash64(key));
        let v2 = run_jam(
            BuiltinJam::GraphFilter,
            graph_args(v1),
            Vec::new(),
            &ns,
            &mut space,
        );
        assert_eq!(v2, if v1.is_multiple_of(2) { v1 } else { 0 });
        let v3 = run_jam(
            BuiltinJam::GraphAggregate,
            graph_args(v2),
            Vec::new(),
            &ns,
            &mut space,
        );
        // The aggregate returns its *contribution* (order-independent)...
        assert_eq!(v3, v2);
        // ...and the accumulator heap holds the running (count, sum) oracle.
        let base = ns.data_addr("graph.accum").unwrap();
        let count = u64::from_le_bytes(space.read(base, 8).unwrap().try_into().unwrap());
        let sum = u64::from_le_bytes(space.read(base + 8, 8).unwrap().try_into().unwrap());
        assert_eq!(count, 1);
        assert_eq!(sum, v2);
    }

    #[test]
    fn args_builders_layout() {
        let a = indirect_put_args(0xABCD, 7, 4);
        assert_eq!(a.len(), ARGS_SIZE);
        assert_eq!(u64::from_le_bytes(a[0..8].try_into().unwrap()), 0xABCD);
        assert_eq!(u32::from_le_bytes(a[8..12].try_into().unwrap()), 7);
        assert_eq!(u32::from_le_bytes(a[12..16].try_into().unwrap()), 4);
        let s = ssum_args(5);
        assert_eq!(u32::from_le_bytes(s[8..12].try_into().unwrap()), 5);
    }

    #[test]
    fn builtin_metadata() {
        assert_eq!(BuiltinJam::IndirectPut.shipped_code_bytes(), 1408);
        assert_eq!(BuiltinJam::ServerSideSum.shipped_code_bytes(), 256);
        assert_eq!(BuiltinJam::IndirectPut.label(), "Indirect Put");
        assert!(BuiltinJam::ServerSideSum
            .element_name()
            .contains("server_side_sum"));
    }
}
