//! Minimal binary PPM (P6) reading and writing, so every stage of the
//! workflow can be inspected with standard image viewers without an
//! external codec dependency.

use crate::buffer::Image;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes a 3-channel 8-bit image as binary PPM (P6).
///
/// # Errors
/// Any underlying I/O error.
///
/// # Panics
/// Panics if `img` is not 3-channel.
pub fn write_ppm(path: impl AsRef<Path>, img: &Image<u8>) -> io::Result<()> {
    assert_eq!(img.channels(), 3, "PPM requires a 3-channel image");
    // seaice-lint: allow(raw-fs-write-in-durable-path) reason="PPM exports are regenerable inspection artifacts, never state anything resumes from"
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P6\n{} {}\n255\n", img.width(), img.height())?;
    w.write_all(img.as_slice())?;
    w.flush()
}

fn read_header_token(r: &mut impl BufRead) -> io::Result<String> {
    // Skips whitespace and `#` comments between tokens, per Netpbm spec.
    let mut tok = String::new();
    let mut byte = [0u8; 1];
    loop {
        r.read_exact(&mut byte)?;
        match byte[0] {
            b'#' => {
                let mut line = String::new();
                r.read_line(&mut line)?;
            }
            c if c.is_ascii_whitespace() => {
                if !tok.is_empty() {
                    return Ok(tok);
                }
            }
            c => tok.push(c as char),
        }
    }
}

fn parse_dims(r: &mut impl BufRead) -> io::Result<(usize, usize)> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let w: usize = read_header_token(r)?
        .parse()
        .map_err(|_| bad("bad width"))?;
    let h: usize = read_header_token(r)?
        .parse()
        .map_err(|_| bad("bad height"))?;
    let maxval: usize = read_header_token(r)?
        .parse()
        .map_err(|_| bad("bad maxval"))?;
    if maxval != 255 {
        return Err(bad("only maxval 255 is supported"));
    }
    Ok((w, h))
}

/// Reads a binary PPM (P6) file into a 3-channel image.
///
/// # Errors
/// I/O errors or malformed/unsupported headers.
pub fn read_ppm(path: impl AsRef<Path>) -> io::Result<Image<u8>> {
    let mut r = BufReader::new(File::open(path)?);
    let magic = read_header_token(&mut r)?;
    if magic != "P6" {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a P6 PPM"));
    }
    let (w, h) = parse_dims(&mut r)?;
    let mut data = vec![0u8; w * h * 3];
    r.read_exact(&mut data)?;
    Ok(Image::from_vec(w, h, 3, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("seaice-imgproc-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn ppm_roundtrip() {
        let img = Image::from_fn(5, 3, 3, |x, y| vec![x as u8, y as u8, (x * y) as u8]);
        let p = tmp("rt.ppm");
        write_ppm(&p, &img).unwrap();
        let back = read_ppm(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(back, img);
    }

    #[test]
    fn rejects_wrong_magic() {
        // A P5 (grayscale) header is a valid Netpbm file, but not a PPM.
        let p = tmp("magic.ppm");
        std::fs::write(&p, b"P5\n2 2\n255\n\0\0\0\0").unwrap();
        let err = read_ppm(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_comments_are_skipped() {
        let p = tmp("comment.ppm");
        std::fs::write(&p, b"P6\n# a comment\n2 1 # trailing\n255\nABCDEF").unwrap();
        let img = read_ppm(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(img.dimensions(), (2, 1));
        assert_eq!(img.as_slice(), b"ABCDEF");
    }
}
