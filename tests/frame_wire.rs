//! The frame wire format, as bytes.
//!
//! `tests/golden/frame_wire.txt` renders the four wire records — the 36-byte
//! header, the 4-byte trailer, a container's 8-byte per-frame prefix and a
//! chain's 8-byte stage record — one line per field (name, offset, width,
//! reserved-zero), and then three sample encodings field by field: a Local
//! frame, a chained Injected frame and a three-frame batch container. Every
//! field of a sample carries a distinct value, so two swapped fields change
//! the text. The file was captured from offsets written out by hand in this
//! test, before the records were declared once in `twochains::frame`; it is
//! compared *exactly*, and it is the statement of the layout that does not
//! come from the table it checks.
//!
//! A change that moves the wire format on purpose says so, and replaces the
//! golden with the text the failing assertion prints.

use std::fmt::Write as _;

use twochains::frame::{
    batch_prefix, chain_stage, header, trailer, BatchView, FrameBatch, FrameView, Record,
    BATCH_PREFIX_SIZE, CHAIN_STAGE_WIRE_SIZE, FRAME_TRAILER_SIZE,
};
use twochains::{ChainArgMap, ChainDescriptor, ChainStage, Frame, FRAME_HEADER_SIZE};

const GOLDEN: &str = include_str!("golden/frame_wire.txt");

/// The four records, each with the size it must tile exactly.
fn records() -> [(&'static str, usize, &'static Record); 4] {
    [
        ("header", FRAME_HEADER_SIZE, &header::FIELDS),
        ("trailer", FRAME_TRAILER_SIZE, &trailer::FIELDS),
        ("batch_prefix", BATCH_PREFIX_SIZE, &batch_prefix::FIELDS),
        ("chain_stage", CHAIN_STAGE_WIRE_SIZE, &chain_stage::FIELDS),
    ]
}

fn hex(bytes: &[u8]) -> String {
    let pairs: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
    pairs.join(" ")
}

/// A Local frame, every header field distinct.
fn local() -> Vec<u8> {
    let args: Vec<u8> = (0x20..0x34).collect();
    Frame::local(0x0403_0201, 0x1413_1211, args, vec![0xE0, 0xE1, 0xE2, 0xE3]).encode()
}

/// An Injected frame continued by two stages, one of each argument mapping.
fn chained_injected() -> Vec<u8> {
    let mut chain = ChainDescriptor::new();
    for (elem_id, map) in [
        (0x2423_2221, ChainArgMap::Result),
        (0x3433_3231, ChainArgMap::KeepArgs),
    ] {
        chain.push(ChainStage { elem_id, map }).unwrap();
    }
    Frame::injected(
        0x0807_0605,
        0x1817_1615,
        (0x40..0x48).collect(),
        (0x50..0x5C).collect(),
        (0x60..0x74).collect(),
        vec![0xF0, 0xF1],
    )
    .with_chain(chain)
    .encode()
}

/// Three Local frames declaring slots 0, 1 and 0x0201, as one container.
fn container() -> Vec<u8> {
    let mut batch = FrameBatch::new();
    for (i, slot) in [0u16, 1, 0x0201].into_iter().enumerate() {
        let i = i as u8;
        let frame = Frame::local(
            0x0C0B_0A09 + u32::from(i),
            0x1C1B_1A19,
            vec![0x70 + i; 20],
            vec![0x80 + i; 4 * (usize::from(i) + 1)],
        );
        batch.push(slot, &frame.encode()).unwrap();
    }
    let mut out = Vec::new();
    batch.finish_into(&mut out).unwrap();
    out
}

/// One line per field of the record at `bytes[at..]`: its name, offset
/// within the sample, raw bytes and value.
fn fields(out: &mut String, path: &str, bytes: &[u8], at: usize, record: &Record) {
    for &(name, field) in record {
        let raw = &bytes[at + field.at..at + field.at + field.width];
        let value = field.get(&bytes[at..]);
        writeln!(
            out,
            "{path}{name} @{} = {value:#x} [{}]",
            at + field.at,
            hex(raw)
        )
        .unwrap();
    }
}

/// A frame at `bytes[at..]`, field by field and section by section; returns
/// where it ends.
fn frame(out: &mut String, path: &str, bytes: &[u8], at: usize) -> usize {
    let h = &bytes[at..];
    fields(out, &format!("{path}header."), bytes, at, &header::FIELDS);
    let mut pos = at + FRAME_HEADER_SIZE;
    let stages = if header::CHAIN_VERSION.get(h) == 0 {
        0
    } else {
        header::CHAIN_STAGES.get(h)
    };
    for k in 0..stages {
        let record = format!("{path}chain_stage[{k}].");
        fields(out, &record, bytes, pos, &chain_stage::FIELDS);
        pos += CHAIN_STAGE_WIRE_SIZE;
    }
    for (name, len) in ["got", "code", "args", "usr"]
        .into_iter()
        .zip(header::SECTION_LENS)
    {
        let len = len.get(h) as usize;
        writeln!(out, "{path}{name} @{pos} [{}]", hex(&bytes[pos..pos + len])).unwrap();
        pos += len;
    }
    fields(
        out,
        &format!("{path}trailer."),
        bytes,
        pos,
        &trailer::FIELDS,
    );
    pos + FRAME_TRAILER_SIZE
}

/// A container at the start of `bytes`: its outer header, each inner frame
/// behind its prefix, its trailer; returns where it ends.
fn batch(out: &mut String, bytes: &[u8]) -> usize {
    fields(out, "header.", bytes, 0, &header::FIELDS);
    let mut pos = FRAME_HEADER_SIZE;
    for i in 0..header::BATCH_COUNT.get(bytes) {
        fields(
            out,
            &format!("[{i}].prefix."),
            bytes,
            pos,
            &batch_prefix::FIELDS,
        );
        let len = batch_prefix::LEN.get(&bytes[pos..]) as usize;
        pos += BATCH_PREFIX_SIZE;
        let end = frame(out, &format!("[{i}]."), bytes, pos);
        assert_eq!(end, pos + len, "inner frame {i} ends where its prefix says");
        pos = end;
    }
    fields(out, "trailer.", bytes, pos, &trailer::FIELDS);
    pos + FRAME_TRAILER_SIZE
}

/// What the records and the encoders say today, in the golden's format.
fn actual() -> String {
    let mut out = String::new();
    for (name, size, record) in records() {
        writeln!(out, "[{name}: {size} bytes]").unwrap();
        for &(field, f) in record {
            let zero = if f.reserved { " reserved" } else { "" };
            writeln!(out, "{field} {} {}{zero}", f.at, f.width).unwrap();
        }
    }
    let samples: [(&str, Vec<u8>, bool); 3] = [
        ("local frame", local(), false),
        ("chained injected frame", chained_injected(), false),
        ("container of three frames", container(), true),
    ];
    for (name, bytes, is_batch) in samples {
        writeln!(out, "[{name}: {} bytes]", bytes.len()).unwrap();
        let end = if is_batch {
            BatchView::parse(&bytes).expect("the container parses");
            batch(&mut out, &bytes)
        } else {
            FrameView::parse(&bytes).expect("the frame parses");
            frame(&mut out, "", &bytes, 0)
        };
        assert_eq!(end, bytes.len(), "{name}: the rendering covers every byte");
    }
    out
}

#[test]
fn every_record_tiles_its_size_with_no_gap_or_overlap() {
    let sizes: Vec<usize> = records().iter().map(|&(_, size, _)| size).collect();
    assert_eq!(sizes, [36, 4, 8, 8]);
    for (name, size, record) in records() {
        let mut end = 0;
        for &(field, f) in record {
            assert_eq!(
                f.at, end,
                "{name}.{field} starts where its predecessor ends"
            );
            assert!(f.width > 0, "{name}.{field} is empty");
            end = f.at + f.width;
        }
        assert_eq!(end, size, "{name} ends at its size");
    }
}

#[test]
fn the_records_and_three_samples_render_to_the_golden() {
    let actual = actual();
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "the wire format diverged from the golden at line {} \
             (golden: {want:?}, actual: {got:?}).\nFull actual text:\n{actual}",
            i + 1
        );
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "the golden and the rendering differ in length.\nFull actual text:\n{actual}"
    );
}
