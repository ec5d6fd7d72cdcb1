package repro.trainer

import repro.storage.{FileSystemWrapper, FileWrapperType}

/** The §5.1.1 comparison baseline: Modyn's training loop with the
  * OnlineDataset replaced by "a custom local dataset reading data directly
  * from binary files". Each dataloader worker is assigned a share of the
  * files and emits *every* sample in them sequentially, read through the
  * file's [[repro.storage.FileWrapper]] — no per-key retrieval, no metadata
  * lookup, no sample-level selection. Batches are assembled from the
  * workers round-robin, like the real dataset.
  */
final class LocalFileDataset(fs: FileSystemWrapper, files: Seq[String], format: FileWrapperType,
                             parser: BytesParser, transform: Transform,
                             numWorkers: Int, batchSize: Int) {
  require(numWorkers > 0 && batchSize > 0, "numWorkers and batchSize must be positive")

  /** Binary files of `recordSize`-byte records (Criteo-lite). */
  def this(fs: FileSystemWrapper, files: Seq[String], recordSize: Int, parser: BytesParser,
           transform: Transform, numWorkers: Int, batchSize: Int) =
    this(fs, files, FileWrapperType.Binary(recordSize), parser, transform, numWorkers, batchSize)

  def batches(): Iterator[TrainBatch] = {
    // Round-robin file assignment gives every worker an equal share.
    val assignment = files.zipWithIndex.groupMap(_._2 % numWorkers)(_._1)
    WorkerBatches(numWorkers, batchSize, "local-dataset-worker") { (w, out) =>
      assignment.getOrElse(w, Seq.empty).foreach { path =>
        FileWrapperType.instantiate(format, fs, path).extractAll().foreach { s =>
          out.emit(0L, transform(parser.parse(s.payload)), s.label.toInt, 1.0)
        }
      }
    }
  }
}
